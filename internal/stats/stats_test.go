package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Var-2.5) > 1e-12 {
		t.Errorf("Var = %v want 2.5", s.Var)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Std = %v", s.Std)
	}
	if s.Sum != 15 || s.SumOfSquares != 55 {
		t.Errorf("sums: %v %v", s.Sum, s.SumOfSquares)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary N = %d", s.N)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || !s.SampleSizeWarnings {
		t.Errorf("singleton summary = %+v", s)
	}
	if s.Var != 0 || s.SE != 0 {
		t.Errorf("singleton Var/SE should be 0: %+v", s)
	}
}

func TestSummaryCIContainsMeanOfNormalSample(t *testing.T) {
	g := rng.New(99)
	misses := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = g.NormFloat64()*2 + 10
		}
		s := Summarize(xs)
		if s.CI95Low > 10 || s.CI95High < 10 {
			misses++
		}
	}
	// 95% interval should miss ~5% of the time; allow up to 12%.
	if misses > trials*12/100 {
		t.Errorf("CI missed true mean %d/%d times", misses, trials)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := Quantile(sorted, 0); q != 0 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(sorted, 1); q != 10 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(sorted, 0.5); q != 5 {
		t.Errorf("q0.5 = %v", q)
	}
	if q := Quantile(sorted, 0.25); q != 2.5 {
		t.Errorf("q0.25 = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	if q := Quantile([]float64{42}, 0.7); q != 42 {
		t.Errorf("singleton quantile = %v", q)
	}
}

func TestProportionWilson(t *testing.T) {
	p := NewProportion(50, 100)
	if p.P != 0.5 {
		t.Errorf("P = %v", p.P)
	}
	if p.Low95 >= 0.5 || p.High95 <= 0.5 {
		t.Errorf("interval does not contain estimate: %+v", p)
	}
	if p.Low95 < 0.39 || p.High95 > 0.61 {
		t.Errorf("interval too wide for n=100: %+v", p)
	}
	// Extreme cases stay in [0, 1].
	p0 := NewProportion(0, 20)
	if p0.Low95 < 0 || p0.P != 0 {
		t.Errorf("zero-successes proportion: %+v", p0)
	}
	p1 := NewProportion(20, 20)
	if p1.High95 > 1 || p1.P != 1 {
		t.Errorf("all-successes proportion: %+v", p1)
	}
	pe := NewProportion(0, 0)
	if !math.IsNaN(pe.P) {
		t.Errorf("empty proportion should be NaN: %+v", pe)
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 2x + 1
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Errorf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %v", fit.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate xs should error")
	}
}

func TestFitLinearNoisy(t *testing.T) {
	g := rng.New(5)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i) / 50
		ys[i] = -1.5*xs[i] + 4 + g.NormFloat64()*0.1
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope+1.5) > 0.05 || math.Abs(fit.Intercept-4) > 0.05 {
		t.Errorf("noisy fit = %+v", fit)
	}
	if fit.R2 < 0.98 {
		t.Errorf("R2 = %v", fit.R2)
	}
}

func TestFitExpDecay(t *testing.T) {
	// y = 3·exp(−0.7x), exact.
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Exp(-0.7*x)
	}
	fit, err := FitExpDecay(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.A-3) > 1e-9 || math.Abs(fit.Rate-0.7) > 1e-9 {
		t.Errorf("fit = %+v", fit)
	}
}

func TestFitExpDecaySkipsNonPositive(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, math.Exp(-1), 0, math.Exp(-3)} // zero at x=2 skipped
	fit, err := FitExpDecay(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.N != 3 {
		t.Errorf("N = %d want 3", fit.N)
	}
	if math.Abs(fit.Rate-1) > 1e-9 {
		t.Errorf("Rate = %v", fit.Rate)
	}
	if _, err := FitExpDecay([]float64{1, 2}, []float64{0, 0}); err == nil {
		t.Error("all-zero ys should error")
	}
}

func TestMonotoneThreshold(t *testing.T) {
	// Deterministic sigmoid crossing 0.5 at x = 3.
	f := func(x float64) float64 { return 1 / (1 + math.Exp(-(x-3)*4)) }
	got, ok := MonotoneThreshold(f, 0, 10, 0.5, 1e-4, 100)
	if !ok {
		t.Error("straddling bracket reported not found")
	}
	if math.Abs(got-3) > 1e-3 {
		t.Errorf("threshold = %v want 3", got)
	}
	// Bracket entirely above the target returns lo with ok false: the
	// crossing lies left of the bracket and was NOT located.
	if got, ok := MonotoneThreshold(f, 5, 10, 0.5, 1e-4, 100); got != 5 || ok {
		t.Errorf("above-target bracket = (%v, %v), want (5, false)", got, ok)
	}
	// Bracket entirely below the target returns hi with ok false.
	if got, ok := MonotoneThreshold(f, 0, 1, 0.9999999, 1e-4, 100); got != 1 || ok {
		t.Errorf("below-target bracket = (%v, %v), want (1, false)", got, ok)
	}
	// A converged bisection landing exactly on an endpoint is still found —
	// the ok signal is what distinguishes it from the non-straddle cases.
	step := func(x float64) float64 {
		if x > 0 {
			return 1
		}
		return 0
	}
	if got, ok := MonotoneThreshold(step, -1e-5, 1, 0.5, 1e-9, 1000); !ok || math.Abs(got) > 1e-4 {
		t.Errorf("near-endpoint crossing = (%v, %v), want (≈0, true)", got, ok)
	}
}

func TestMeanMinMaxHelpers(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Mean(xs) != 2.8 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestSummarizeMeanMatchesHelper(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1000))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		m := Mean(xs)
		return math.Abs(s.Mean-m) < 1e-9*(1+math.Abs(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
