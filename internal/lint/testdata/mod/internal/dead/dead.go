// Package dead is the fixture corpus for the deadcode analyzer: each export
// is one reference shape, flagged or kept.
package dead

// OwnTestOnly is referenced only by this package's own tests.
func OwnTestOnly() {} // want deadcode

// OtherTestOracle is referenced by another package's test — a shared
// test oracle, kept.
func OtherTestOracle() {}

// CmdOnly is referenced from a cmd/ directory only, kept.
func CmdOnly() {}

// SelfOnly is referenced only by its own methods.
type SelfOnly struct{ next *SelfOnly } // want deadcode

// Clone copies s; nothing selects a Clone method.
func (s *SelfOnly) Clone() *SelfOnly { return &SelfOnly{next: s.next} } // want deadcode

// Net is re-exported by the root package.
type Net struct{}

// Detect is never called, but Net is reachable from the root API.
func (n *Net) Detect() int { return 0 }

// Level is referenced from a cmd/ directory.
type Level int

// String is called implicitly by fmt, never through a selector.
func (l Level) String() string { return "level" }
