// Package stats provides the small statistical toolkit the SWIFT
// evaluation relies on: percentiles, empirical CDFs, boxplot summaries,
// weighted geometric means (the Fit Score of §4.1), and the TPR/FPR
// quadrants of Fig. 6.
package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty input.
// xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// WeightedGeoMean2 is the two-value WeightedGeoMean: (x1^w1 · x2^w2)^(1/(w1+w2)).
// It is the exact combinator of the SWIFT Fit Score — WS weighted
// against PS — inlined for the inference hot loop, which calls it once
// per scored link and must not allocate the two slices the general form
// takes. Semantics match WeightedGeoMean: a non-positive x forces 0, as
// does a zero weight sum.
func WeightedGeoMean2(x1, w1, x2, w2 float64) float64 {
	if x1 <= 0 || x2 <= 0 {
		return 0
	}
	wSum := w1 + w2
	if wSum == 0 {
		return 0
	}
	return math.Exp((w1*math.Log(x1) + w2*math.Log(x2)) / wSum)
}

// WeightedGeoMean computes (Π x_i^{w_i})^{1/Σw_i}, the combinator used by
// the SWIFT Fit Score. Any x_i == 0 forces the result to 0 (a link with
// zero withdrawal share can never be the root cause); negative inputs are
// invalid and also return 0. Hot callers with exactly two values use
// WeightedGeoMean2, which allocates nothing.
func WeightedGeoMean(xs, ws []float64) float64 {
	if len(xs) == 0 || len(xs) != len(ws) {
		return 0
	}
	var logSum, wSum float64
	for i, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += ws[i] * math.Log(x)
		wSum += ws[i]
	}
	if wSum == 0 {
		return 0
	}
	return math.Exp(logSum / wSum)
}

// Boxplot summarizes a sample the way the paper's box-and-whisker figures
// do: median line, interquartile box, 5th/95th-percentile whiskers, and
// the mean dot of Fig. 7.
type Boxplot struct {
	P5, P25, Median, P75, P95, Mean float64
	N                               int
}

// NewBoxplot computes the summary. xs is not modified.
func NewBoxplot(xs []float64) Boxplot {
	if len(xs) == 0 {
		return Boxplot{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Boxplot{
		P5:     percentileSorted(s, 5),
		P25:    percentileSorted(s, 25),
		Median: percentileSorted(s, 50),
		P75:    percentileSorted(s, 75),
		P95:    percentileSorted(s, 95),
		Mean:   Mean(s),
		N:      len(s),
	}
}

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF. xs is copied.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x) in [0,1].
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	// Move past equal values so At is P(X <= x), not P(X < x).
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the smallest sample value v with P(X <= v) >= q.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	i := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c.sorted) {
		i = len(c.sorted) - 1
	}
	return c.sorted[i]
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.sorted) }
