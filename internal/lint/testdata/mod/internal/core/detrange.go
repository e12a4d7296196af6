// Package core is the fixture corpus for the detrange analyzer: each
// function is one map-iteration shape, flagged or clean. The rule is flat:
// every map range and every unsorted maps iterator is flagged, however
// order-insensitive the body looks.
package core

import (
	"maps"
	"slices"
	"sort"
)

// flagStringConcat builds a string in map order — order-sensitive.
func flagStringConcat(m map[string]int) string {
	s := ""
	for k := range m { // want detrange
		s += k
	}
	return s
}

// flagCallInBody calls an arbitrary function per key — unprovable.
func flagCallInBody(m map[string]int) {
	for k := range m { // want detrange
		process(k)
	}
}

// flagAppendNoSort collects in map order and never sorts.
func flagAppendNoSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want detrange
		keys = append(keys, k)
	}
	return keys
}

// flagBreak stops after a nondeterministic subset of iterations.
func flagBreak(m map[string]int) int {
	total := 0
	for _, v := range m { // want detrange
		total += v
		if total > 10 {
			break
		}
	}
	return total
}

// flagCounter accumulates commutatively — still a map range.
func flagCounter(m map[string]int) int {
	total := 0
	for _, v := range m { // want detrange
		total += v
	}
	return total
}

// flagMax folds with max — still a map range.
func flagMax(m map[string]int) int {
	best := 0
	for _, v := range m { // want detrange
		best = max(best, v)
	}
	return best
}

// flagKeyedStore writes distinct slots per key — still a map range.
func flagKeyedStore(m map[string]int, dst *holder) {
	for k, v := range m { // want detrange
		dst.out[k] = v * 2
	}
}

// flagCollectSort collects then sorts — slices.Sorted(maps.Keys(m)) says
// the same in one expression.
func flagCollectSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want detrange
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// flagGuardedCollectSort collects under an if-init guard, then sorts.
func flagGuardedCollectSort(m map[string]map[string]bool) []string {
	var keys []string
	for k := range m { // want detrange
		if inner, ok := m[k]; ok && len(inner) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// flagDelete removes entries — removals commute, but it is a map range.
func flagDelete(m map[string]int) {
	for k, v := range m { // want detrange
		if v == 0 {
			delete(m, k)
		}
	}
}

// flagLocals mutates only iteration-local state plus a max fold.
func flagLocals(m map[string][]int) int {
	best := 0
	for _, vs := range m { // want detrange
		t := 0
		for _, v := range vs {
			t += v
		}
		best = max(best, t)
	}
	return best
}

// okSortedKeys is the one sanctioned form: the keys in ascending order.
func okSortedKeys(m map[string]int) []string {
	return slices.Sorted(maps.Keys(m))
}

// flagCollectKeys collects the keys in map order.
func flagCollectKeys(m map[string]int) []string {
	return slices.Collect(maps.Keys(m)) // want detrange
}

// flagRangeKeys ranges over the keys iterator, in map order.
func flagRangeKeys(m map[string]int) {
	for k := range maps.Keys(m) { // want detrange
		process(k)
	}
}

// flagValues sums the values iterator — still map order.
func flagValues(m map[string]int) int {
	total := 0
	for v := range maps.Values(m) { // want detrange
		total += v
	}
	return total
}

// flagPackageClosure is a map range inside a package-level function
// literal.
var flagPackageClosure = func(m map[string]int) int {
	n := 0
	for range m { // want detrange
		n++
	}
	return n
}

// waivedCollect is order-sensitive but carries a reasoned waiver.
func waivedCollect(m map[string]int) []string {
	var keys []string
	//sensvet:allow detrange — fixture: callers treat the listing as a set
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

type holder struct{ out map[string]int }

func process(string) {}
