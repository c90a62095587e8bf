package stats

// Quadrant identifies the four regions of Fig. 6, splitting the TPR/FPR
// plane at 50%.
type Quadrant int

// The quadrants of Fig. 6. TopLeft is a very good inference (high TPR,
// low FPR); TopRight overestimates; BottomLeft underestimates; and
// BottomRight is a bad inference, which the paper reports SWIFT never
// produces.
const (
	TopLeft Quadrant = iota
	TopRight
	BottomLeft
	BottomRight
)

// QuadrantOf classifies a (TPR, FPR) point, both in [0,1].
func QuadrantOf(tpr, fpr float64) Quadrant {
	switch {
	case tpr >= 0.5 && fpr < 0.5:
		return TopLeft
	case tpr >= 0.5:
		return TopRight
	case fpr < 0.5:
		return BottomLeft
	default:
		return BottomRight
	}
}

// QuadrantShares converts per-burst (TPR, FPR) points into the fraction
// of bursts in each quadrant, matching the percentages printed inside
// Fig. 6's corners. The two slices must have equal length.
func QuadrantShares(tprs, fprs []float64) (shares [4]float64) {
	if len(tprs) == 0 || len(tprs) != len(fprs) {
		return shares
	}
	var counts [4]int
	for i := range tprs {
		counts[QuadrantOf(tprs[i], fprs[i])]++
	}
	for q, c := range counts {
		shares[q] = float64(c) / float64(len(tprs))
	}
	return shares
}
