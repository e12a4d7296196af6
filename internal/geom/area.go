package geom

// Area returns the area of a region analytically when the shape supports it
// and −1 otherwise; use GridArea for arbitrary regions.
func Area(r Region) float64 {
	switch v := r.(type) {
	case Circle:
		return v.Area()
	case Rect:
		return v.Area()
	case EmptyRegion:
		return 0
	default:
		return -1
	}
}

// GridArea estimates the area of a region by evaluating membership on an
// n×n grid over its bounding box (deterministic; error O(perimeter·cell)).
func GridArea(r Region, n int) float64 {
	b := r.Bounds()
	w, h := b.Width(), b.Height()
	if w <= 0 || h <= 0 || n <= 0 {
		return 0
	}
	dx, dy := w/float64(n), h/float64(n)
	hits := 0
	for i := 0; i < n; i++ {
		x := b.Min.X + (float64(i)+0.5)*dx
		for j := 0; j < n; j++ {
			y := b.Min.Y + (float64(j)+0.5)*dy
			if r.Contains(Point{x, y}) {
				hits++
			}
		}
	}
	return w * h * float64(hits) / float64(n*n)
}
