package inference

import (
	"math"
	"testing"

	"swift/internal/bgpsim"
	"swift/internal/netaddr"
	"swift/internal/rib"
	"swift/internal/topology"
)

func link(a, b uint32) topology.Link { return topology.MakeLink(a, b) }

// fig1Tracker builds AS 1's session RIB with AS 2 in the pre-failure
// state of Fig. 1 (scaled 1/10: S2/S5/S6 = 100, S7/S8 = 1000 prefixes).
func fig1Tracker(cfg Config) *Tracker {
	tb := rib.New(1)
	add := func(origin uint32, count int, path ...uint32) {
		for i := 0; i < count; i++ {
			tb.Announce(netaddr.PrefixFor(origin, i), path)
		}
	}
	add(2, 100, 2)
	add(5, 100, 2, 5)
	add(6, 100, 2, 5, 6)
	add(7, 1000, 2, 5, 6, 7)
	add(8, 1000, 2, 5, 6, 8)
	return NewTracker(cfg, tb)
}

// playFig1Burst feeds the full Fig. 1 burst: withdrawals for S6+S8,
// announcements moving S7 to the (5,6)-free path.
func playFig1Burst(t *Tracker) {
	for i := 0; i < 100; i++ {
		t.ObserveWithdraw(netaddr.PrefixFor(6, i))
	}
	for i := 0; i < 1000; i++ {
		t.ObserveWithdraw(netaddr.PrefixFor(8, i))
		t.ObserveAnnounce(netaddr.PrefixFor(7, i), []uint32{2, 5, 3, 6, 7})
	}
}

func TestFig4EndOfBurstInference(t *testing.T) {
	cfg := Default()
	cfg.UseHistory = false
	tr := fig1Tracker(cfg)
	playFig1Burst(tr)

	scores := tr.Scores()
	if len(scores) == 0 {
		t.Fatal("no scores")
	}
	if scores[0].Link != link(5, 6) {
		t.Fatalf("top link = %v, want (5,6); scores: %+v", scores[0].Link, scores[:3])
	}
	// At burst end the failed link's WS and PS are both exactly 1
	// (Theorem 4.1's condition).
	if scores[0].WS != 1 || scores[0].PS != 1 || scores[0].FS != 1 {
		t.Errorf("FS components for (5,6) = WS %v PS %v FS %v, want 1,1,1",
			scores[0].WS, scores[0].PS, scores[0].FS)
	}
	// W values from Fig. 4 (scaled): (5,6)=1100, (6,8)=1000, (6,7)=0.
	var by = map[topology.Link]LinkScore{}
	for _, s := range scores {
		by[s.Link] = s
	}
	if by[link(5, 6)].W != 1100 {
		t.Errorf("W(5,6) = %d, want 1100", by[link(5, 6)].W)
	}
	if by[link(6, 8)].W != 1000 {
		t.Errorf("W(6,8) = %d, want 1000", by[link(6, 8)].W)
	}
	if _, ok := by[link(6, 7)]; ok {
		t.Error("(6,7) must have no withdrawals charged")
	}
	// WS(6,8) = 10/11 exactly.
	if got, want := by[link(6, 8)].WS, 1000.0/1100.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("WS(6,8) = %v, want %v", got, want)
	}

	res := tr.Infer()
	if len(res.Links) != 1 || res.Links[0] != link(5, 6) {
		t.Errorf("inferred = %v, want [(5,6)]", res.Links)
	}
	if !res.Accepted {
		t.Error("end-of-burst inference must be accepted")
	}
}

func TestEarlyInferencePrefersFailedLink(t *testing.T) {
	cfg := Default()
	cfg.UseHistory = false
	tr := fig1Tracker(cfg)
	// Feed only the first 10% of the burst: 10 S6 withdrawals, 100 S8
	// withdrawals, 100 S7 updates.
	for i := 0; i < 10; i++ {
		tr.ObserveWithdraw(netaddr.PrefixFor(6, i))
	}
	for i := 0; i < 100; i++ {
		tr.ObserveWithdraw(netaddr.PrefixFor(8, i))
		tr.ObserveAnnounce(netaddr.PrefixFor(7, i), []uint32{2, 5, 3, 6, 7})
	}
	res := tr.Infer()
	// Early on, (5,6) may be indistinguishable from upstream links, but
	// the returned set must contain (5,6) or links adjacent to it, and
	// the predicted set must cover the prefixes still to be withdrawn.
	found := false
	for _, l := range res.Links {
		if l == link(5, 6) || l.Has(5) || l.Has(6) {
			found = true
		}
	}
	if !found {
		t.Errorf("early inference %v unrelated to the failure", res.Links)
	}
}

func TestWeightsFavorWSEarly(t *testing.T) {
	// With wWS=3 early inference must rank (5,6) at least as high as
	// (2,5): both have WS=1 but (5,6) sheds P faster via S7 updates.
	cfg := Default()
	cfg.UseHistory = false
	tr := fig1Tracker(cfg)
	for i := 0; i < 100; i++ {
		tr.ObserveWithdraw(netaddr.PrefixFor(8, i))
		tr.ObserveAnnounce(netaddr.PrefixFor(7, i), []uint32{2, 5, 3, 6, 7})
	}
	scores := tr.Scores()
	var fs56, fs25 float64
	for _, s := range scores {
		switch s.Link {
		case link(5, 6):
			fs56 = s.FS
		case link(2, 5):
			fs25 = s.FS
		}
	}
	if fs56 <= fs25 {
		t.Errorf("FS(5,6)=%v must exceed FS(2,5)=%v after updates shed P", fs56, fs25)
	}
}

func TestUnknownPrefixWithdrawalCountsTowardTotal(t *testing.T) {
	cfg := Default()
	cfg.UseHistory = false
	tr := fig1Tracker(cfg)
	tr.ObserveWithdraw(netaddr.PrefixFor(99, 0)) // never announced
	if tr.Received() != 1 {
		t.Errorf("received = %d", tr.Received())
	}
	if len(tr.Scores()) != 0 {
		t.Error("unknown prefix must not charge any link")
	}
}

func TestReset(t *testing.T) {
	cfg := Default()
	tr := fig1Tracker(cfg)
	tr.ObserveWithdraw(netaddr.PrefixFor(6, 0))
	tr.Reset()
	if tr.Received() != 0 || len(tr.Scores()) != 0 {
		t.Error("reset must clear burst state")
	}
	// The RIB itself persists across bursts.
	if tr.RIB().Len() == 0 {
		t.Error("reset must not clear the RIB")
	}
}

// TestBurstAfterResetReusesGroupArrays: a burst over path set k, a
// Reset, then a burst over path set k+1. The second burst's withdrawn
// groups land on PathIDs the tracker has never grouped, and fill the
// arrays the first burst's groups left behind instead of growing new
// ones.
func TestBurstAfterResetReusesGroupArrays(t *testing.T) {
	const groups, per = 64, 64
	table := rib.New(1)
	for set := 0; set < 2; set++ {
		for i := 0; i < groups; i++ {
			path := []uint32{2, 5, uint32(100 + i), uint32(10000 + 100*set + i)}
			for j := 0; j < per; j++ {
				table.Announce(netaddr.PrefixFor(uint32(100+groups*set+i), j), path)
			}
		}
	}
	tr := NewTracker(Default(), table)
	set := 0
	burst := func() {
		for i := 0; i < groups; i++ {
			for j := 0; j < per; j++ {
				tr.ObserveWithdraw(netaddr.PrefixFor(uint32(100+groups*set+i), j))
			}
		}
		if got := len(tr.wPaths); got != groups {
			t.Errorf("burst over set %d grouped %d paths, want %d", set, got, groups)
		}
		tr.Reset()
		set++
	}
	// AllocsPerRun warms up with the burst over set 0 and measures the
	// burst over set 1.
	allocs := testing.AllocsPerRun(1, burst)
	if allocs > 8 {
		t.Errorf("second burst of %d groups x %d prefixes allocates %v objects, want <= 8", groups, per, allocs)
	}
}

func TestPlausibilityGate(t *testing.T) {
	cfg := Default()
	tr := fig1Tracker(cfg)
	// 150 withdrawals from S8 leave ~1950 prefixes predicted on the
	// (2,5)/(5,6) chain — under the 10k bracket, so accepted.
	for i := 0; i < 150; i++ {
		tr.ObserveWithdraw(netaddr.PrefixFor(8, i))
	}
	res := tr.Infer()
	if !res.Accepted {
		t.Errorf("small predicted=%d must pass the gate", res.Predicted)
	}

	// A tracker with a huge RIB on one link: tiny burst predicting a
	// 20k reroute must be deferred below the first bracket.
	big := rib.New(1)
	for i := 0; i < 20000; i++ {
		big.Announce(netaddr.PrefixFor(8, i), []uint32{2, 5, 6, 8})
	}
	tr2 := NewTracker(cfg, big)
	for i := 0; i < 100; i++ {
		tr2.ObserveWithdraw(netaddr.PrefixFor(8, i))
	}
	res2 := tr2.Infer()
	if res2.Accepted {
		t.Errorf("predicted=%d at received=%d must be deferred", res2.Predicted, res2.Received)
	}
	// After 20k received, always accepted.
	for i := 100; i < 20000; i++ {
		tr2.ObserveWithdraw(netaddr.PrefixFor(8, i))
	}
	res3 := tr2.Infer()
	if !res3.Accepted {
		t.Error("past AcceptAlways the inference must be accepted")
	}
}

func TestAggregationForNodeFailure(t *testing.T) {
	// Router 6 dies behind TWO disjoint entry chains (via 5 and via 9):
	// withdrawals split across (5,6) and (9,6), so neither alone
	// explains the burst and the aggregation must return a set sharing
	// endpoint 6. Heavy surviving prefix populations on the shared
	// upstream links keep their Path Share (hence FS) low.
	cfg := Default()
	cfg.UseHistory = false
	tb := rib.New(1)
	add := func(origin uint32, count int, path ...uint32) {
		for i := 0; i < count; i++ {
			tb.Announce(netaddr.PrefixFor(origin, i), path)
		}
	}
	add(7, 500, 2, 5, 6, 7)
	add(8, 500, 2, 9, 6, 8)
	add(5, 5000, 2, 5)        // survives: keeps FS(2,5) low
	add(9, 5000, 2, 9)        // survives: keeps FS(2,9) low
	add(10, 500, 2, 11, 6, 7) // survives via a third entry: keeps FS(6,7) low
	tr := NewTracker(cfg, tb)
	for i := 0; i < 500; i++ {
		tr.ObserveWithdraw(netaddr.PrefixFor(7, i))
		tr.ObserveWithdraw(netaddr.PrefixFor(8, i))
	}
	res := tr.Infer()
	if len(res.Links) < 2 {
		t.Fatalf("aggregation expected, got %v (scores %+v)", res.Links, tr.Scores())
	}
	for _, l := range res.Links {
		if !l.Has(6) {
			t.Errorf("link %v does not share endpoint 6 (links %v)", l, res.Links)
		}
	}
	// The predicted set must not drag in the surviving heavy origins.
	for _, p := range tr.PredictedPrefixes(res) {
		if o, _, _ := netaddr.PrefixOrigin(p); o == 5 || o == 9 {
			t.Fatalf("prediction reroutes unaffected origin %d", o)
		}
	}
}

func TestTheorem41OnSimulatedBursts(t *testing.T) {
	// Theorem 4.1: with every AS injecting prefixes, running the
	// inference at the END of a burst returns a set containing the
	// failed link. Validate on simulated topologies.
	g := topology.Generate(topology.GenConfig{NumASes: 120, AvgDegree: 6, Seed: 9})
	origins := make(map[uint32]int)
	for _, as := range g.ASes() {
		origins[as] = 5
	}
	net := &bgpsim.Network{Graph: g, Policy: &bgpsim.Policy{}, Origins: origins}
	sols := net.Solve(g)

	// Pick the vantage as a low-degree AS and its first provider.
	vantage := uint32(100)
	var neighbor uint32
	for _, nb := range g.Neighbors(vantage) {
		if nb.Rel == topology.RelProvider {
			neighbor = nb.AS
			break
		}
	}
	if neighbor == 0 {
		neighbor = g.Neighbors(vantage)[0].AS
	}

	sessionRIB := net.SessionRIB(sols, vantage, neighbor)
	tested := 0
	for _, l := range g.Links() {
		if tested >= 8 {
			break
		}
		if l.Has(vantage) {
			continue
		}
		b, err := net.ReplayLinkFailure(vantage, neighbor, l, bgpsim.DefaultTiming(int64(l.A)<<16|int64(l.B)))
		if err != nil || b.Size < 20 {
			continue // failure invisible on this session
		}
		tested++
		cfg := Default()
		cfg.UseHistory = false
		tb := rib.New(vantage)
		for origin, path := range sessionRIB {
			for i := 0; i < origins[origin]; i++ {
				tb.Announce(netaddr.PrefixFor(origin, i), path)
			}
		}
		tr := NewTracker(cfg, tb)
		for _, ev := range b.Events {
			if ev.Kind == bgpsim.KindWithdraw {
				tr.ObserveWithdraw(ev.Prefix)
			} else {
				tr.ObserveAnnounce(ev.Prefix, ev.Path)
			}
		}
		res := tr.Infer()
		found := false
		for _, il := range res.Links {
			if il == l {
				found = true
			}
		}
		if !found {
			// The theorem guarantees containment when the vantage sees
			// the full extent; links far from the session may be
			// underdetermined, but the returned set must then at least
			// touch the failed link's endpoints.
			touches := false
			for _, il := range res.Links {
				if il.Has(l.A) || il.Has(l.B) {
					touches = true
				}
			}
			if !touches {
				t.Errorf("failure %v: inferred %v neither contains nor touches it", l, res.Links)
			}
		}
	}
	if tested == 0 {
		t.Skip("no visible failures found on this session")
	}
}

func TestInferEmptyTracker(t *testing.T) {
	tr := NewTracker(Default(), rib.New(1))
	res := tr.Infer()
	if len(res.Links) != 0 || res.Accepted {
		t.Errorf("empty inference = %+v", res)
	}
}

func TestPredictedPrefixes(t *testing.T) {
	cfg := Default()
	cfg.UseHistory = false
	tr := fig1Tracker(cfg)
	for i := 0; i < 200; i++ {
		tr.ObserveWithdraw(netaddr.PrefixFor(8, i))
	}
	res := tr.Infer()
	ps := tr.PredictedPrefixes(res)
	if len(ps) != res.Predicted {
		t.Errorf("PredictedPrefixes len %d != Predicted %d", len(ps), res.Predicted)
	}
	if res.Predicted == 0 {
		t.Error("prediction must be non-empty mid-burst")
	}
}

// TestInferParallelCounting forces the scoring worker pool on (the
// 1-CPU CI fallback would otherwise run serial) over a table wide
// enough to cross the parallel-counting grain, and checks the fanned
// count agrees with the serial one. Under -race this is the regression
// test for the CountOnSetRange workers racing on the table's inline
// first-link cache.
func TestInferParallelCounting(t *testing.T) {
	oldWorkers := scoreWorkers
	scoreWorkers = 4
	defer func() { scoreWorkers = oldWorkers }()

	cfg := Default()
	cfg.UseHistory = false
	table := rib.New(1)
	const groups = 5000 // > 2*pathGrain live paths
	path := make([]uint32, 3)
	for g := uint32(0); g < groups; g++ {
		path[0], path[1], path[2] = 100000+g, 10000+g, 20000+g
		table.Announce(netaddr.PrefixFor(2+g%250, int(g/250)*100), path)
	}
	tr := NewTracker(cfg, table)
	for g := uint32(0); g < groups; g += 7 {
		tr.ObserveWithdraw(netaddr.PrefixFor(2+g%250, int(g/250)*100))
	}
	res := tr.Infer()
	if len(res.Links) == 0 {
		t.Fatal("no inference")
	}
	if want := len(tr.PredictedPrefixes(res)); res.Predicted != want {
		t.Fatalf("parallel Predicted = %d, serial materialization = %d", res.Predicted, want)
	}
}
