package serve

import (
	"slices"
	"testing"
)

// tableIDs returns a table's listing order and its map's ids, sorted.
func tableIDs(t *storeTable) (order, snaps []string) {
	order = slices.Clone(t.order)
	for _, s := range t.snaps {
		snaps = append(snaps, s.Info.ID)
	}
	slices.Sort(snaps)
	return order, snaps
}

// TestStoreCopyOnWrite drives the store through each writer and checks the
// copy-on-write contract after every step: the listing is sorted, a table
// loaded before the write is untouched by it, and exactly the replaced or
// removed snapshots carry the retired flag.
func TestStoreCopyOnWrite(t *testing.T) {
	snap := func(id string) *Snapshot { return &Snapshot{Info: SnapshotInfo{ID: id}} }
	a, b, c, b2 := snap("30"), snap("10"), snap("20"), snap("10")
	all := []*Snapshot{a, b, c, b2}
	st := NewStore()
	steps := []struct {
		name        string
		write       func()
		wantIDs     []string
		wantCurrent *Snapshot
		wantRetired []*Snapshot
	}{
		{"add", func() { st.Add(a, false, false) }, []string{"30"}, nil, nil},
		{"add, activate", func() { st.Add(c, true, false) }, []string{"20", "30"}, c, nil},
		{"add, activate+replace", func() { st.Add(b, true, true) }, []string{"10", "30"}, b, []*Snapshot{c}},
		{"remove", func() { st.Remove("30") }, []string{"10"}, b, []*Snapshot{c, a}},
		{"re-add live id", func() {
			if live, added := st.Add(b2, true, true); live != b || added {
				t.Errorf("re-add = (%v, %v), want the live snapshot, not added", live, added)
			}
		}, []string{"10"}, b, []*Snapshot{c, a}},
	}
	for _, step := range steps {
		before := st.tab.Load()
		beforeOrder, beforeSnaps := tableIDs(before)
		step.write()

		var ids []string
		for _, s := range st.List() {
			ids = append(ids, s.Info.ID)
		}
		if !slices.Equal(ids, step.wantIDs) {
			t.Errorf("%s: List ids = %v, want %v", step.name, ids, step.wantIDs)
		}
		if st.Current() != step.wantCurrent {
			t.Errorf("%s: Current = %v, want %v", step.name, st.Current(), step.wantCurrent)
		}
		if order, snaps := tableIDs(before); !slices.Equal(order, beforeOrder) || !slices.Equal(snaps, beforeSnaps) {
			t.Errorf("%s: earlier table changed: order %v→%v, snaps %v→%v",
				step.name, beforeOrder, order, beforeSnaps, snaps)
		}
		for _, s := range all {
			if want := slices.Contains(step.wantRetired, s); s.Retired() != want {
				t.Errorf("%s: snapshot %s (%p) retired = %v, want %v", step.name, s.Info.ID, s, s.Retired(), want)
			}
		}
	}
}
