// Package pointprocess generates the random point sets underlying the
// paper's models: homogeneous Poisson point processes in rectangles (the
// node deployments of UDG(2, λ) and NN(2, k)), binomial processes with a
// fixed count, and independent thinning.
//
// The standard conditional construction is used: the number of points in a
// rectangle A is Poisson(λ·area(A)), and given the count the points are
// i.i.d. uniform on A. Disjoint rectangles therefore receive independent
// point sets, which is exactly the independence the paper's tile-goodness
// coupling relies on.
package pointprocess

import (
	"math"
	"math/rand/v2"

	"repro/internal/geom"
)

// PoissonCount samples a Poisson random variable with the given mean.
// For small means it uses Knuth's product-of-uniforms method; for large
// means (> 30) it uses the PTRS transformed-rejection sampler of Hörmann,
// which is exact and O(1).
func PoissonCount(mean float64, rng *rand.Rand) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		// Knuth: count uniforms until their product drops below e^−mean.
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	return poissonPTRS(mean, rng)
}

// poissonPTRS implements Hörmann's PTRS rejection sampler for Poisson
// variates with mean ≥ 10 (used here for ≥ 30).
func poissonPTRS(mu float64, rng *rand.Rand) int {
	b := 0.931 + 2.53*math.Sqrt(mu)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mu + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*math.Log(mu)-mu-logGamma(k+1) {
			return int(k)
		}
	}
}

func logGamma(x float64) float64 {
	lg, _ := math.Lgamma(x)
	return lg
}

// Poisson samples a homogeneous Poisson point process of intensity lambda
// on the rectangle box.
func Poisson(box geom.Rect, lambda float64, rng *rand.Rand) []geom.Point {
	n := PoissonCount(lambda*box.Area(), rng)
	return Binomial(box, n, rng)
}

// Binomial samples n i.i.d. uniform points on the rectangle box (the
// "binomial point process"). Conditioning a Poisson process on its count
// yields exactly this distribution.
func Binomial(box geom.Rect, n int, rng *rand.Rand) []geom.Point {
	pts := make([]geom.Point, n)
	w, h := box.Width(), box.Height()
	for i := range pts {
		pts[i] = geom.Point{
			X: box.Min.X + rng.Float64()*w,
			Y: box.Min.Y + rng.Float64()*h,
		}
	}
	return pts
}

// OccupancyProbability returns 1 − e^{−λ·area}, the probability that a
// region of the given area contains at least one point.
func OccupancyProbability(lambda, area float64) float64 {
	return -math.Expm1(-lambda * area)
}
