package experiments

import (
	"strings"
	"sync"
	"testing"

	"swift/internal/bgpsim"
	"swift/internal/trace"
)

// testDataset is a shared small dataset; experiments only read it.
var (
	dsOnce sync.Once
	dsMem  *trace.Dataset
)

func testDataset() *trace.Dataset {
	dsOnce.Do(func() {
		dsMem = trace.Generate(trace.Config{
			NumASes:           250,
			AvgDegree:         6,
			Sessions:          40,
			Days:              30,
			Failures:          50,
			MaxPrefixes:       8000,
			PopularASes:       5,
			ASFailureFraction: 0.15,
			Timing:            bgpsim.DefaultTiming(42),
			Seed:              42,
		})
	})
	return dsMem
}

// evalSessions picks a few sessions that actually see bursts.
func evalSessions(t *testing.T, ds *trace.Dataset, minBurst, want int) []trace.Session {
	t.Helper()
	census := ds.Census(minBurst)
	seen := map[trace.Session]bool{}
	var out []trace.Session
	for _, st := range census {
		if !seen[st.Session] {
			seen[st.Session] = true
			out = append(out, st.Session)
			if len(out) == want {
				break
			}
		}
	}
	if len(out) == 0 {
		t.Skip("no sessions with bursts at this scale")
	}
	return out
}

func TestTable1Shape(t *testing.T) {
	res := Table1([]int{2000, 10000}, 1)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[1].Downtime <= res.Rows[0].Downtime {
		t.Errorf("downtime must grow with burst size: %v vs %v",
			res.Rows[0].Downtime, res.Rows[1].Downtime)
	}
	// The 10k row is the paper's 3.8 s row: same order of magnitude.
	got := res.Rows[1].Downtime.Seconds()
	if got < 1 || got > 15 {
		t.Errorf("10k downtime = %.1fs; paper 3.8s, want same order", got)
	}
	if !strings.Contains(res.String(), "Table 1") {
		t.Error("String() missing header")
	}
}

func TestFig2aShape(t *testing.T) {
	ds := testDataset()
	res := Fig2a(ds, 7)
	if len(res.Box) != 4 || len(res.Box[0]) != 3 {
		t.Fatalf("box dims = %dx%d", len(res.Box), len(res.Box[0]))
	}
	// More sessions must see at least as many bursts (medians).
	for j := range res.MinSizes {
		prev := -1.0
		for i := range res.SessionCounts {
			m := res.Box[i][j].Median
			if m < prev {
				t.Errorf("median bursts decreased with more sessions at min size %d", res.MinSizes[j])
			}
			prev = m
		}
	}
	// Larger min size, fewer bursts.
	for i := range res.SessionCounts {
		if res.Box[i][2].Median > res.Box[i][0].Median {
			t.Errorf("25k median above 5k median at %d sessions", res.SessionCounts[i])
		}
	}
	_ = res.String()
}

func TestFig2bShape(t *testing.T) {
	ds := testDataset()
	res := Fig2b(ds)
	if res.TotalBursts == 0 {
		t.Skip("no bursts at this scale")
	}
	// Large bursts last longer: compare medians where both exist.
	if res.LargeCDF.N() > 0 && res.SmallCDF.N() > 0 {
		if res.LargeCDF.Quantile(0.5) < res.SmallCDF.Quantile(0.5) {
			t.Error("large bursts should take longer than small ones")
		}
	}
	_ = res.String()
}

func TestFig6Shape(t *testing.T) {
	ds := testDataset()
	sessions := evalSessions(t, ds, 1500, 3)
	noHist := Fig6(ds, sessions, 1500, false)
	if noHist.Total == 0 {
		t.Skip("no bursts")
	}
	if len(noHist.TPRs) == 0 {
		t.Fatal("no evaluated bursts without history")
	}
	// The paper's headline: no bad inferences (bottom-right empty), and
	// the top half dominates.
	if noHist.Shares[3] > 0.05 {
		t.Errorf("bottom-right share = %.2f; paper reports 0", noHist.Shares[3])
	}
	if noHist.Shares[0]+noHist.Shares[1] < 0.5 {
		t.Errorf("top half = %.2f; expected dominant", noHist.Shares[0]+noHist.Shares[1])
	}

	hist := Fig6(ds, sessions, 1500, true)
	_ = hist.String()
	_ = noHist.String()
}

func TestSimLocalizationShape(t *testing.T) {
	ds := testDataset()
	sessions := evalSessions(t, ds, 1500, 2)
	res := SimLocalization(ds, sessions, 1500, 200, 0)
	if res.Bursts == 0 {
		t.Skip("no bursts")
	}
	wrongShare := float64(res.EndWrong) / float64(res.Bursts)
	if wrongShare > 0.1 {
		t.Errorf("end-of-burst wrong inferences = %.0f%%; theorem 4.1 expects ~0",
			100*wrongShare)
	}
	safeShare := float64(res.SafeBackups) / float64(res.Bursts)
	if safeShare < 0.9 {
		t.Errorf("safe backups = %.0f%%; paper reports all but one burst", 100*safeShare)
	}
	_ = res.String()

	noisy := SimLocalization(ds, sessions, 1500, 200, 200)
	if noisy.Bursts == 0 {
		t.Error("noise variant evaluated nothing")
	}
}

func TestTable2Shape(t *testing.T) {
	ds := testDataset()
	sessions := evalSessions(t, ds, 1500, 3)
	res := Table2(ds, sessions, 1500)
	if res.Small.N+res.Large.N == 0 {
		t.Skip("no accepted inferences")
	}
	blk := res.Small
	if blk.N == 0 {
		blk = res.Large
	}
	// CPR percentiles are non-decreasing by construction.
	for i := 1; i < len(blk.CPR); i++ {
		if blk.CPR[i] < blk.CPR[i-1] {
			t.Fatal("CPR percentiles must be monotone")
		}
	}
	// Median CPR should be substantial (paper: ~90%).
	if mid := blk.CPR[3]; mid < 30 {
		t.Errorf("median CPR = %.1f%%; expected a strong prediction", mid)
	}
	_ = res.String()
}

func TestFig7Shape(t *testing.T) {
	ds := testDataset()
	sessions := evalSessions(t, ds, 1500, 2)
	res := Fig7(ds, sessions, 1500, nil)
	if len(res.All) != 4 {
		t.Fatalf("bit budgets = %d", len(res.All))
	}
	if res.All[1].N == 0 {
		t.Skip("no encoded bursts")
	}
	// More bits, better or equal median coverage.
	for i := 1; i < len(res.Bits); i++ {
		if res.All[i].Median < res.All[i-1].Median-1e-9 {
			t.Errorf("coverage dropped from %d to %d bits: %.1f -> %.1f",
				res.Bits[i-1], res.Bits[i], res.All[i-1].Median, res.All[i].Median)
		}
	}
	// 18 bits must already cover the vast majority (paper: 98.7%).
	if res.All[1].Median < 60 {
		t.Errorf("18-bit median coverage = %.1f%%; expected strong coverage", res.All[1].Median)
	}
	_ = res.String()
}

func TestFig8Shape(t *testing.T) {
	ds := testDataset()
	sessions := evalSessions(t, ds, 1500, 2)
	res := Fig8(ds, sessions, 1500)
	if res.BGP.N() == 0 {
		t.Skip("no withdrawals")
	}
	if res.Swift.N() != res.BGP.N() {
		t.Fatalf("sample counts differ: %d vs %d", res.Swift.N(), res.BGP.N())
	}
	// SWIFT must learn no later than BGP at every quantile.
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9} {
		if res.Swift.Quantile(q) > res.BGP.Quantile(q)+1e-9 {
			t.Errorf("SWIFT slower at q=%.2f: %.2fs vs %.2fs",
				q, res.Swift.Quantile(q), res.BGP.Quantile(q))
		}
	}
	// And strictly faster at the median (the 2s-vs-13s claim's shape).
	if res.Swift.Quantile(0.5) >= res.BGP.Quantile(0.5) {
		t.Error("SWIFT median learning time must beat BGP")
	}
	_ = res.String()
}

func TestRulesShape(t *testing.T) {
	ds := testDataset()
	sessions := evalSessions(t, ds, 1500, 2)
	res := Rules(ds, sessions, 1500, 16)
	if res.N == 0 {
		t.Skip("no inferences")
	}
	if res.LinksMedian < 1 {
		t.Errorf("median links = %.1f", res.LinksMedian)
	}
	if res.RulesMedian != res.LinksMedian*16 {
		t.Errorf("rules = links x 16, got %.0f vs %.0f", res.RulesMedian, res.LinksMedian*16)
	}
	_ = res.String()
}

func TestFig9Shape(t *testing.T) {
	res := Fig9(20000, 3)
	if res.BGPDowntime <= res.SwiftDowntime {
		t.Fatalf("SWIFT %v must beat BGP %v", res.SwiftDowntime, res.BGPDowntime)
	}
	// At 20k prefixes the speed-up is already large; the paper's 98%
	// needs 290k (checked in the bench harness). Demand >70% here.
	if res.SpeedupPct < 70 {
		t.Errorf("speed-up = %.1f%%; expected >70%% at 20k prefixes", res.SpeedupPct)
	}
	// Loss curves: BGP starts at 100%, SWIFT drops far earlier.
	if res.BGPSeries[0].Loss != 1 {
		t.Error("BGP loss must start at 100%")
	}
	_ = res.String()
}

func TestAblations(t *testing.T) {
	ds := testDataset()
	sessions := evalSessions(t, ds, 1500, 2)
	w := AblateWeights(ds, sessions, 1500)
	if len(w.Rows) != 4 {
		t.Fatalf("weight rows = %d", len(w.Rows))
	}
	tr := AblateTrigger(ds, sessions, 1500)
	if len(tr.Rows) != 3 {
		t.Fatalf("trigger rows = %d", len(tr.Rows))
	}
	_ = w.String()
	_ = tr.String()
}

func TestSafetyShape(t *testing.T) {
	ds := testDataset()
	sessions := evalSessions(t, ds, 1500, 2)
	res := Safety(ds, sessions, 1500)
	if res.Bursts == 0 || res.ReroutedPrefixes == 0 {
		t.Skip("no reroutes to verify")
	}
	if res.LoopFree != res.ReroutedPrefixes {
		t.Errorf("loop-free = %d of %d; Theorem 3.2 demands all",
			res.LoopFree, res.ReroutedPrefixes)
	}
	// The vast majority of backups must dodge the actual failure.
	// Assumption 2 is legitimately violated on some multi-link (AS)
	// failures, where the inference localizes one entry link and the
	// fallback backup crosses another dead link of the same router —
	// packets there are no worse off than under vanilla BGP (§3.3).
	if float64(res.AvoidsFailure) < 0.75*float64(res.ReroutedPrefixes) {
		t.Errorf("backups avoiding the failure = %d of %d; expected ≥75%%",
			res.AvoidsFailure, res.ReroutedPrefixes)
	}
	_ = res.String()
}
