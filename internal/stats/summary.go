// Package stats provides the descriptive statistics, fitting and threshold
// location routines used by the experiment harness: summaries with
// confidence intervals, histograms, least-squares fits (linear and
// log-linear for exponential decay), and bisection on empirical monotone
// curves.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                  int
	Mean, Var, Std     float64
	Min, Max           float64
	Median, P90, P99   float64
	SE                 float64 // standard error of the mean
	CI95Low, CI95High  float64 // normal-approximation 95% CI for the mean
	Sum, SumOfSquares  float64
	CoefficientOfVar   float64 // Std/Mean (0 when Mean == 0)
	MeanAbsolute       float64
	SampleSizeWarnings bool // true when N < 2 (Var/SE are zero)
}

// Summarize computes a Summary of the sample. An empty sample yields a zero
// Summary with N == 0.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		s.Sum += x
		s.SumOfSquares += x * x
		s.MeanAbsolute += math.Abs(x)
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	n := float64(s.N)
	s.Mean = s.Sum / n
	s.MeanAbsolute /= n
	if s.N >= 2 {
		// Two-pass variance for numerical stability.
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Var = ss / (n - 1)
		s.Std = math.Sqrt(s.Var)
		s.SE = s.Std / math.Sqrt(n)
	} else {
		s.SampleSizeWarnings = true
	}
	s.CI95Low = s.Mean - 1.96*s.SE
	s.CI95High = s.Mean + 1.96*s.SE
	if s.Mean != 0 {
		s.CoefficientOfVar = s.Std / s.Mean
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P90 = Quantile(sorted, 0.9)
	s.P99 = Quantile(sorted, 0.99)
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an already-sorted sample by
// linear interpolation. Empty input yields NaN.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders a compact one-line summary.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g±%.2g [%.4g, %.4g] med=%.4g p90=%.4g",
		s.N, s.Mean, 1.96*s.SE, s.Min, s.Max, s.Median, s.P90)
}

// Proportion summarizes a Bernoulli sample: k successes out of n, with a
// Wilson score 95% confidence interval (well behaved near 0 and 1).
type Proportion struct {
	K, N          int
	P             float64
	Low95, High95 float64
}

// NewProportion computes the estimate and the Wilson interval.
func NewProportion(k, n int) Proportion {
	pr := Proportion{K: k, N: n}
	if n == 0 {
		pr.P = math.NaN()
		pr.Low95, pr.High95 = math.NaN(), math.NaN()
		return pr
	}
	p := float64(k) / float64(n)
	pr.P = p
	const z = 1.96
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	pr.Low95 = math.Max(0, center-half)
	pr.High95 = math.Min(1, center+half)
	return pr
}

// String renders the proportion with its interval.
func (p Proportion) String() string {
	return fmt.Sprintf("%d/%d = %.4f [%.4f, %.4f]", p.K, p.N, p.P, p.Low95, p.High95)
}

// Mean returns the arithmetic mean (NaN for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
