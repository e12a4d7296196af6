package pointprocess

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestPoissonCountMeanVariance(t *testing.T) {
	g := rng.New(1)
	for _, mean := range []float64{0.5, 3, 12, 30, 75, 400} {
		const n = 20000
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(PoissonCount(mean, g))
		}
		s := stats.Summarize(xs)
		// Poisson: mean == variance. Allow 5 standard errors.
		seMean := math.Sqrt(mean / n)
		if math.Abs(s.Mean-mean) > 5*seMean {
			t.Errorf("mean %v: sample mean %v", mean, s.Mean)
		}
		if math.Abs(s.Var-mean) > 0.1*mean {
			t.Errorf("mean %v: sample var %v", mean, s.Var)
		}
	}
}

func TestPoissonCountEdge(t *testing.T) {
	g := rng.New(2)
	if PoissonCount(0, g) != 0 || PoissonCount(-1, g) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

func TestPoissonProcessCountDistribution(t *testing.T) {
	g := rng.New(3)
	box := geom.Box(4, 2.5) // area 10
	const lambda = 2.0
	const trials = 5000
	var total float64
	for i := 0; i < trials; i++ {
		pts := Poisson(box, lambda, g)
		total += float64(len(pts))
		for _, p := range pts {
			if !box.Contains(p) {
				t.Fatalf("point %v outside box", p)
			}
		}
	}
	mean := total / trials
	want := lambda * box.Area()
	if math.Abs(mean-want) > 0.2 {
		t.Errorf("mean count %v want %v", mean, want)
	}
}

func TestPoissonIndependenceAcrossDisjointRegions(t *testing.T) {
	// Counts in disjoint halves must be (nearly) uncorrelated.
	g := rng.New(4)
	box := geom.Box(2, 1)
	left := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	right := geom.NewRect(geom.Pt(1, 0), geom.Pt(2, 1))
	const trials = 4000
	var sl, sr, slr, sl2, sr2 float64
	for i := 0; i < trials; i++ {
		pts := Poisson(box, 5, g)
		l := float64(CountIn(pts, left))
		r := float64(CountIn(pts, right))
		sl += l
		sr += r
		slr += l * r
		sl2 += l * l
		sr2 += r * r
	}
	n := float64(trials)
	cov := slr/n - (sl/n)*(sr/n)
	varL := sl2/n - (sl/n)*(sl/n)
	varR := sr2/n - (sr/n)*(sr/n)
	corr := cov / math.Sqrt(varL*varR)
	if math.Abs(corr) > 0.06 {
		t.Errorf("counts in disjoint halves correlated: r = %v", corr)
	}
}

func TestBinomialExactCount(t *testing.T) {
	g := rng.New(5)
	box := geom.Box(1, 1)
	pts := Binomial(box, 137, g)
	if len(pts) != 137 {
		t.Fatalf("count = %d", len(pts))
	}
	for _, p := range pts {
		if !box.Contains(p) {
			t.Fatalf("point outside box: %v", p)
		}
	}
	if len(Binomial(box, 0, g)) != 0 {
		t.Error("zero count should give empty slice")
	}
}

func TestBinomialUniformity(t *testing.T) {
	g := rng.New(6)
	box := geom.Box(1, 1)
	pts := Binomial(box, 40000, g)
	// Quadrant counts should be ~10000 each.
	var q [4]int
	for _, p := range pts {
		i := 0
		if p.X >= 0.5 {
			i |= 1
		}
		if p.Y >= 0.5 {
			i |= 2
		}
		q[i]++
	}
	for i, c := range q {
		if math.Abs(float64(c)-10000) > 400 {
			t.Errorf("quadrant %d count %d", i, c)
		}
	}
}

func TestCountInFilterIn(t *testing.T) {
	pts := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(2, 2), geom.Pt(0.1, 0.9)}
	r := geom.Box(1, 1)
	if CountIn(pts, r) != 2 {
		t.Errorf("CountIn = %d", CountIn(pts, r))
	}
}

func TestVoidOccupancyProbability(t *testing.T) {
	if o := OccupancyProbability(2, 3); math.Abs(o-(1-math.Exp(-6))) > 1e-15 {
		t.Errorf("OccupancyProbability = %v", o)
	}
	if o := OccupancyProbability(0, 5); o != 0 {
		t.Errorf("occupancy with λ=0 should be impossible, got %v", o)
	}
	// Empirical check: void probability of a sub-square.
	g := rng.New(8)
	box := geom.Box(3, 3)
	sub := geom.Square(geom.Pt(1.5, 1.5), 1)
	const lambda = 1.2
	const trials = 20000
	empty := 0
	for i := 0; i < trials; i++ {
		if CountIn(Poisson(box, lambda, g), sub) == 0 {
			empty++
		}
	}
	want := 1 - OccupancyProbability(lambda, 1)
	got := float64(empty) / trials
	if math.Abs(got-want) > 0.015 {
		t.Errorf("empirical void prob %v want %v", got, want)
	}
}

func TestPoissonCDF(t *testing.T) {
	if got := PoissonCDF(-1, 5); got != 0 {
		t.Errorf("CDF(-1) = %v", got)
	}
	if got := PoissonCDF(3, 0); got != 1 {
		t.Errorf("CDF with mean 0 = %v", got)
	}
	// P(N ≤ 0) = e^−mean.
	if got := PoissonCDF(0, 2); math.Abs(got-math.Exp(-2)) > 1e-12 {
		t.Errorf("CDF(0) = %v", got)
	}
	// CDF must be nondecreasing in k and reach ~1.
	prev := 0.0
	for k := 0; k <= 60; k++ {
		v := PoissonCDF(k, 20)
		if v < prev-1e-12 {
			t.Fatalf("CDF decreasing at k=%d", k)
		}
		prev = v
	}
	if prev < 0.999999 {
		t.Errorf("CDF(60; 20) = %v, should be ≈1", prev)
	}
	// Agreement with sampler.
	g := rng.New(9)
	const trials = 30000
	le10 := 0
	for i := 0; i < trials; i++ {
		if PoissonCount(12, g) <= 10 {
			le10++
		}
	}
	want := PoissonCDF(10, 12)
	got := float64(le10) / trials
	if math.Abs(got-want) > 0.015 {
		t.Errorf("sampler vs CDF: %v vs %v", got, want)
	}
}

// CountIn returns the number of points lying in the rectangle r — the
// reference count the spatial-statistics tests check the samplers against.
func CountIn(pts []geom.Point, r geom.Rect) int {
	n := 0
	for _, p := range pts {
		if r.Contains(p) {
			n++
		}
	}
	return n
}

// PoissonCDF returns P(N ≤ k) for N ~ Poisson(mean), computed by direct
// summation of the pmf — the exact reference the PoissonCount sampler is
// checked against (adequate for mean ≤ a few hundred).
func PoissonCDF(k int, mean float64) float64 {
	if k < 0 {
		return 0
	}
	if mean <= 0 {
		return 1
	}
	term := math.Exp(-mean)
	sum := term
	for i := 1; i <= k; i++ {
		term *= mean / float64(i)
		sum += term
	}
	if sum > 1 {
		return 1
	}
	return sum
}
