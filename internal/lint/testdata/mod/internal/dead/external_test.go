package dead_test

import (
	"testing"

	"fixture/internal/dead"
)

// The external test package lives in the same directory: still the
// package's own tests.
func TestOwnExternal(t *testing.T) {
	dead.OwnTestOnly()
}
