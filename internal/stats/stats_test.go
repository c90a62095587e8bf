package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {10, 1.4},
	} {
		if got := Percentile(xs, c.p); !almostEq(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileSingle(t *testing.T) {
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single-sample percentile = %v", got)
	}
}

func TestMeanMedian(t *testing.T) {
	xs := []float64{2, 4, 6, 8}
	if m := Mean(xs); !almostEq(m, 5) {
		t.Errorf("Mean = %v", m)
	}
	if m := Percentile(xs, 50); !almostEq(m, 5) {
		t.Errorf("median = %v", m)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
}

func TestWeightedGeoMean(t *testing.T) {
	// Equal weights over {4, 9} -> sqrt(36) = 6.
	if g := WeightedGeoMean([]float64{4, 9}, []float64{1, 1}); !almostEq(g, 6) {
		t.Errorf("geo mean = %v, want 6", g)
	}
	// The paper's Fit Score shape: (ws^3 * ps)^(1/4).
	ws, ps := 1.0, 0.5
	want := math.Pow(math.Pow(ws, 3)*ps, 0.25)
	if g := WeightedGeoMean([]float64{ws, ps}, []float64{3, 1}); !almostEq(g, want) {
		t.Errorf("fit score = %v, want %v", g, want)
	}
}

func TestWeightedGeoMean2MatchesSliceForm(t *testing.T) {
	// The two-value fast path must agree with the general form bit for
	// bit across the Fit Score's input range, including the guards.
	cases := []struct{ x1, w1, x2, w2 float64 }{
		{4, 1, 9, 1},
		{1, 3, 0.5, 1},
		{0.004, 3, 0.17, 1},
		{1e-9, 3, 1, 1},
		{0, 3, 1, 1},
		{1, 3, 0, 1},
		{-1, 1, 2, 1},
		{0.5, 0, 0.25, 0},
	}
	for _, c := range cases {
		want := WeightedGeoMean([]float64{c.x1, c.x2}, []float64{c.w1, c.w2})
		if got := WeightedGeoMean2(c.x1, c.w1, c.x2, c.w2); got != want {
			t.Errorf("WeightedGeoMean2(%v,%v,%v,%v) = %v, slice form = %v",
				c.x1, c.w1, c.x2, c.w2, got, want)
		}
	}
}

func TestWeightedGeoMeanZeroes(t *testing.T) {
	if g := WeightedGeoMean([]float64{0, 1}, []float64{3, 1}); g != 0 {
		t.Errorf("zero factor must force 0, got %v", g)
	}
	if g := WeightedGeoMean([]float64{-1, 1}, []float64{1, 1}); g != 0 {
		t.Errorf("negative factor must return 0, got %v", g)
	}
	if g := WeightedGeoMean(nil, nil); g != 0 {
		t.Errorf("empty input must return 0, got %v", g)
	}
	if g := WeightedGeoMean([]float64{1}, []float64{1, 2}); g != 0 {
		t.Errorf("mismatched lengths must return 0, got %v", g)
	}
}

func TestWeightedGeoMeanBounds(t *testing.T) {
	// Property: for inputs in (0,1], the result stays within [min, max].
	f := func(a, b uint8) bool {
		x := float64(a%100+1) / 100
		y := float64(b%100+1) / 100
		g := WeightedGeoMean([]float64{x, y}, []float64{3, 1})
		lo, hi := math.Min(x, y), math.Max(x, y)
		return g >= lo-1e-12 && g <= hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoxplot(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	b := NewBoxplot(xs)
	if !almostEq(b.Median, 50) || !almostEq(b.P5, 5) || !almostEq(b.P95, 95) || !almostEq(b.Mean, 50) {
		t.Errorf("boxplot = %+v", b)
	}
	if b.N != 101 {
		t.Errorf("N = %d", b.N)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	for _, tc := range []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	} {
		if got := c.At(tc.x); !almostEq(got, tc.want) {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if q := c.Quantile(0.5); q != 2 {
		t.Errorf("Quantile(0.5) = %v", q)
	}
	if q := c.Quantile(1.0); q != 3 {
		t.Errorf("Quantile(1.0) = %v", q)
	}
	if c.N() != 4 {
		t.Errorf("N = %d", c.N())
	}
}

func TestCDFQuantileInverse(t *testing.T) {
	// Property: At(Quantile(q)) >= q for q in (0,1].
	samples := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	c := NewCDF(samples)
	for q := 0.05; q <= 1.0; q += 0.05 {
		if c.At(c.Quantile(q)) < q-1e-9 {
			t.Errorf("At(Quantile(%v)) = %v < q", q, c.At(c.Quantile(q)))
		}
	}
}

func TestQuadrantOf(t *testing.T) {
	for _, tc := range []struct {
		tpr, fpr float64
		want     Quadrant
	}{
		{0.9, 0.1, TopLeft},
		{0.9, 0.9, TopRight},
		{0.1, 0.1, BottomLeft},
		{0.1, 0.9, BottomRight},
		{0.5, 0.499, TopLeft}, // boundary: TPR >= .5 counts as top
	} {
		if got := QuadrantOf(tc.tpr, tc.fpr); got != tc.want {
			t.Errorf("QuadrantOf(%v,%v) = %v, want %v", tc.tpr, tc.fpr, got, tc.want)
		}
	}
}

func TestQuadrantShares(t *testing.T) {
	tprs := []float64{0.9, 0.9, 0.1, 0.9}
	fprs := []float64{0.1, 0.9, 0.1, 0.2}
	s := QuadrantShares(tprs, fprs)
	if !almostEq(s[TopLeft], 0.5) || !almostEq(s[TopRight], 0.25) || !almostEq(s[BottomLeft], 0.25) || s[BottomRight] != 0 {
		t.Errorf("shares = %v", s)
	}
	var total float64
	for _, v := range s {
		total += v
	}
	if !almostEq(total, 1) {
		t.Errorf("shares must sum to 1, got %v", total)
	}
}
