package stats

import (
	"errors"
	"math"
)

// LinearFit holds an ordinary-least-squares fit y ≈ Slope·x + Intercept.
type LinearFit struct {
	Slope, Intercept float64
	R2               float64 // coefficient of determination
	N                int
}

// FitLinear computes the least-squares line through (x, y) pairs.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: mismatched sample lengths")
	}
	n := len(xs)
	if n < 2 {
		return LinearFit{}, errors.New("stats: need at least 2 points for a linear fit")
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: degenerate x values")
	}
	slope := sxy / sxx
	fit := LinearFit{
		Slope:     slope,
		Intercept: my - slope*mx,
		N:         n,
	}
	if syy > 0 {
		fit.R2 = sxy * sxy / (sxx * syy)
	} else {
		fit.R2 = 1 // all ys equal and fitted exactly
	}
	return fit, nil
}

// ExpDecayFit holds a fit of the exponential-decay model y ≈ A·exp(−c·x),
// obtained by a log-linear least-squares fit on the positive observations.
// Rate is c (positive for genuine decay).
type ExpDecayFit struct {
	A, Rate float64
	R2      float64
	N       int // number of positive observations actually used
}

// FitExpDecay fits y ≈ A·exp(−Rate·x) to the pairs with y > 0.
// This is the model of the paper's coverage theorem (Theorem 3.3) and
// stretch-tail theorem (Theorem 3.2).
func FitExpDecay(xs, ys []float64) (ExpDecayFit, error) {
	if len(xs) != len(ys) {
		return ExpDecayFit{}, errors.New("stats: mismatched sample lengths")
	}
	var fx, fy []float64
	for i := range xs {
		if ys[i] > 0 {
			fx = append(fx, xs[i])
			fy = append(fy, math.Log(ys[i]))
		}
	}
	lin, err := FitLinear(fx, fy)
	if err != nil {
		return ExpDecayFit{}, err
	}
	return ExpDecayFit{
		A:    math.Exp(lin.Intercept),
		Rate: -lin.Slope,
		R2:   lin.R2,
		N:    lin.N,
	}, nil
}

// MonotoneThreshold locates, by bisection, the input x in [lo, hi] at which
// the (noisy, assumed increasing) function f crosses the level target.
// It evaluates f at most maxEval times and returns the bracketing midpoint
// with ok true. When the initial bracket does not straddle the target —
// f(lo) already at or above it, or f(hi) still below it — no crossing can
// be located: the nearer endpoint is returned with ok false, so callers can
// tell "the threshold is ≈ x" from "the threshold lies outside [lo, hi]"
// (the two were previously indistinguishable). f should return an empirical
// estimate in [0, 1]; tolX controls the termination width.
func MonotoneThreshold(f func(x float64) float64, lo, hi, target, tolX float64, maxEval int) (x float64, ok bool) {
	flo := f(lo)
	fhi := f(hi)
	evals := 2
	// A non-straddling bracket has no crossing to bisect toward: report the
	// nearer end, flagged.
	if flo >= target {
		return lo, false
	}
	if fhi < target {
		return hi, false
	}
	for hi-lo > tolX && evals < maxEval {
		mid := (lo + hi) / 2
		if f(mid) >= target {
			hi = mid
		} else {
			lo = mid
		}
		evals++
	}
	return (lo + hi) / 2, true
}
