package hng

import "math/bits"

// edgeRefs counts, per packed edge, how many sources currently emit it: an
// open-addressing table with linear probing over a power-of-two slab, kept
// at most half full, with backward-shift deletion (no tombstones). Key 0 —
// the self-loop {0, 0}, which no source emits — marks an empty slot.
type edgeRefs struct {
	keys  []uint64
	vals  []int32
	n     int
	shift uint // 64 − log2(len(keys))
}

// newEdgeRefs returns a table that holds n edges without growing.
func newEdgeRefs(n int) *edgeRefs {
	t := &edgeRefs{}
	t.alloc(max(16, 1<<bits.Len(uint(2*n))))
	return t
}

func (t *edgeRefs) alloc(size int) {
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// home is key's preferred slot (Fibonacci hashing).
func (t *edgeRefs) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// slot returns key's slot, or the empty slot where it would go.
func (t *edgeRefs) slot(key uint64) int {
	mask := len(t.keys) - 1
	i := t.home(key)
	for t.keys[i] != 0 && t.keys[i] != key {
		i = (i + 1) & mask
	}
	return i
}

// get returns key's count, 0 when absent.
func (t *edgeRefs) get(key uint64) int32 { return t.vals[t.slot(key)] }

// add adds d to key's count and returns the new count; a key whose count
// reaches 0 leaves the table.
func (t *edgeRefs) add(key uint64, d int32) int32 {
	i := t.slot(key)
	if t.keys[i] == 0 {
		if 2*(t.n+1) > len(t.keys) {
			t.grow()
			i = t.slot(key)
		}
		t.keys[i] = key
		t.n++
	}
	t.vals[i] += d
	if t.vals[i] == 0 {
		t.delete(i)
		return 0
	}
	return t.vals[i]
}

// delete empties slot i and shifts later entries of its probe run back, so
// every key stays reachable from its home without tombstones.
func (t *edgeRefs) delete(i int) {
	mask := len(t.keys) - 1
	t.n--
	for {
		t.keys[i], t.vals[i] = 0, 0
		j := i
		for {
			j = (j + 1) & mask
			if t.keys[j] == 0 {
				return
			}
			// The entry at j may fill the hole at i when i lies on its
			// probe path, i.e. no nearer to j than its home.
			if (j-t.home(t.keys[j]))&mask >= (j-i)&mask {
				t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
				i = j
				break
			}
		}
	}
}

// grow doubles the slab and reinserts every entry.
func (t *edgeRefs) grow() {
	keys, vals := t.keys, t.vals
	t.alloc(2 * len(keys))
	for i, k := range keys {
		if k != 0 {
			j := t.slot(k)
			t.keys[j], t.vals[j] = k, vals[i]
		}
	}
}
