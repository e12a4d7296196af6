package serve

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// TestBuildSpecAdmission pins BuildSpec admission below the HTTP layer,
// which the -preload path bypasses: a non-finite geometry field is refused
// up front (it used to hang Build), the serving benchmark's snapshot and
// the 10⁶-point scale tier are admitted, and a spec past a size limit is
// refused as too large (413), not as malformed (400).
func TestBuildSpecAdmission(t *testing.T) {
	for _, sp := range []BuildSpec{
		{Kind: "udg", Side: math.NaN()},
		{Kind: "udg", Lambda: math.Inf(1)},
		{Kind: "udg", GenSide: math.NaN()},
		{Kind: "hng", BaseRadius: math.Inf(1)},
	} {
		if _, err := Build(sp); err == nil || !strings.Contains(err.Error(), "must be finite") {
			t.Errorf("Build(%+v) error = %v, want a non-finite rejection", sp, err)
		}
	}
	for _, sp := range []BuildSpec{
		{Kind: "udg", Side: 25, Lambda: 16},
		{Kind: "udg", Side: 250, Lambda: 16, GenSide: 10},
		{Kind: "hng", Side: 250, Lambda: 16, BaseRadius: 1},
	} {
		if err := sp.normalize(); err != nil {
			t.Errorf("%+v refused: %v", sp, err)
		}
	}
	for _, sp := range []BuildSpec{
		{Kind: "udg", Side: 400, Lambda: 16},
		{Kind: "udg", Side: 30, GenSide: 0.01},
		{Kind: "udg", Side: 100, Lambda: 150},
	} {
		if err := sp.normalize(); !errors.Is(err, errTooLarge) {
			t.Errorf("%+v: error %v, want errTooLarge", sp, err)
		}
	}
}
