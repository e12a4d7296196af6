package serve

// Retired reports whether the snapshot has been removed from the store (by
// rollover replacement or DELETE).
func (s *Snapshot) Retired() bool { return s.retired.Load() }

// Drained reports whether the snapshot is retired with no in-flight
// queries — the point at which the store holds no reference and the
// snapshot's slabs, CSRs and positions become garbage.
func (s *Snapshot) Drained() bool { return s.retired.Load() && s.refs.Load() == 0 }
