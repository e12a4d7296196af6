package core

import (
	"testing"

	"fixture/internal/dead"
)

func TestOracle(t *testing.T) {
	dead.OtherTestOracle()
}
