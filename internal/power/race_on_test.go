//go:build race

package power

// raceEnabled reports whether the race detector is on. It then makes
// sync.Pool drop a random share of Puts, so allocation counts of pooled
// paths are not reproducible.
const raceEnabled = true
