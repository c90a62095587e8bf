package bgpsim

import (
	"testing"
	"time"

	"swift/internal/topology"
)

func pathEq(got []uint32, want ...uint32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestSolveFig1PreFailure(t *testing.T) {
	n := Fig1Network(10)
	sols := n.Solve(n.Graph)

	// AS 1 must route S6/S7/S8 via 2→5→6 (the paper's primary paths).
	for origin, want := range map[uint32][]uint32{
		6: {2, 5, 6},
		7: {2, 5, 6, 7},
		8: {2, 5, 6, 8},
	} {
		r := sols[origin].RouteAt(1)
		if !r.Valid() || !pathEq(r.Path, want...) {
			t.Errorf("AS1 route to %d = %v, want %v", origin, r.Path, want)
		}
	}
	// AS 5 must prefer its direct provider 6 for S7.
	r := sols[7].RouteAt(5)
	if !pathEq(r.Path, 6, 7) {
		t.Errorf("AS5 route to 7 = %v, want [6 7]", r.Path)
	}
	// AS 4's path to S8 must cross (5,6): it is unusable as a backup.
	r = sols[8].RouteAt(4)
	if !pathEq(r.Path, 5, 6, 8) {
		t.Errorf("AS4 route to 8 = %v, want [5 6 8]", r.Path)
	}
	// AS 3 reaches S8 via its provider 6, avoiding (5,6).
	r = sols[8].RouteAt(3)
	if !pathEq(r.Path, 6, 8) {
		t.Errorf("AS3 route to 8 = %v, want [6 8]", r.Path)
	}
}

func TestSolveFig1SessionRIB(t *testing.T) {
	n := Fig1Network(10)
	sols := n.Solve(n.Graph)
	ribFromAS2 := n.SessionRIB(sols, 1, 2)
	// AS 2 exports its provider routes to its customer AS 1.
	if !pathEq(ribFromAS2[8], 2, 5, 6, 8) {
		t.Errorf("AS2 exports S8 as %v", ribFromAS2[8])
	}
	if !pathEq(ribFromAS2[2], 2) {
		t.Errorf("AS2 exports its own prefixes as %v", ribFromAS2[2])
	}
	// AS 3 also offers (5,6)-free paths — the backup SWIFT will use.
	ribFromAS3 := n.SessionRIB(sols, 1, 3)
	if !pathEq(ribFromAS3[8], 3, 6, 8) {
		t.Errorf("AS3 exports S8 as %v", ribFromAS3[8])
	}
	// Partial transit: AS 3 must NOT give AS 5 routes for S8.
	if _, ok := sols[8].ExportTo(n.Graph, n.Policy, 3, 5); ok {
		t.Error("AS3 must not export S8 to AS5 (partial transit)")
	}
	if _, ok := sols[7].ExportTo(n.Graph, n.Policy, 3, 5); !ok {
		t.Error("AS3 must export S7 to AS5 (partial transit)")
	}
}

func TestSolveFig1PostFailure(t *testing.T) {
	n := Fig1Network(10)
	after := n.Graph.WithoutLink(5, 6)
	sols := n.Solve(after)
	// AS 5 reroutes S7 via AS 3 (the paper's 10k path updates)...
	r := sols[7].RouteAt(5)
	if !pathEq(r.Path, 3, 6, 7) {
		t.Errorf("AS5 post-failure route to 7 = %v, want [3 6 7]", r.Path)
	}
	// ...but has no route at all for S6 and S8 (the 11k withdrawals).
	if sols[6].RouteAt(5).Valid() {
		t.Error("AS5 must lose S6")
	}
	if sols[8].RouteAt(5).Valid() {
		t.Error("AS5 must lose S8")
	}
	// AS 1 keeps connectivity for everything via AS 3.
	for _, origin := range []uint32{6, 7, 8} {
		if !sols[origin].RouteAt(1).Valid() {
			t.Errorf("AS1 lost origin %d entirely", origin)
		}
	}
}

func TestReplayFig1Burst(t *testing.T) {
	// The paper's running example: failing (5,6) produces 11k
	// withdrawals (S6+S8) and 10k updates (S7) on AS1's session with
	// AS2, at scale 10k / 1k.
	n := Fig1Network(10000)
	b, err := n.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), DefaultTiming(1))
	if err != nil {
		t.Fatal(err)
	}
	var withdrawals, announces int
	for _, ev := range b.Events {
		switch ev.Kind {
		case KindWithdraw:
			withdrawals++
		case KindAnnounce:
			announces++
			if !pathEq(ev.Path, 2, 5, 3, 6, 7) {
				t.Fatalf("announce path = %v", ev.Path)
			}
		}
	}
	if withdrawals != 11000 {
		t.Errorf("withdrawals = %d, want 11000", withdrawals)
	}
	if announces != 10000 {
		t.Errorf("announces = %d, want 10000", announces)
	}
	if b.Size != withdrawals {
		t.Errorf("Size = %d", b.Size)
	}
	if len(b.WithdrawnOrigins) != 2 {
		t.Errorf("withdrawn origins = %v", b.WithdrawnOrigins)
	}
	// Events must be time-sorted.
	for i := 1; i < len(b.Events); i++ {
		if b.Events[i].At < b.Events[i-1].At {
			t.Fatal("events not sorted by arrival time")
		}
	}
	if b.Duration() <= 0 {
		t.Error("burst must take time")
	}
}

func TestReplayDeterministic(t *testing.T) {
	n := Fig1Network(100)
	a, err := n.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), DefaultTiming(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), DefaultTiming(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ")
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.At != eb.At || ea.Prefix != eb.Prefix || ea.Kind != eb.Kind {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea, eb)
		}
	}
}

func TestReplayUnknownLink(t *testing.T) {
	n := Fig1Network(10)
	if _, err := n.ReplayLinkFailure(1, 2, topology.MakeLink(1, 99), DefaultTiming(0)); err == nil {
		t.Error("unknown link must error")
	}
}

func TestReplayASFailure(t *testing.T) {
	n := Fig1Network(100)
	b, err := n.ReplayASFailure(1, 2, 6, DefaultTiming(3))
	if err != nil {
		t.Fatal(err)
	}
	// Killing AS 6 severs S6, S7 and S8 from everyone.
	if len(b.WithdrawnOrigins) != 3 {
		t.Errorf("withdrawn origins = %v", b.WithdrawnOrigins)
	}
	if len(b.FailedLinks) != 4 { // links 5-6, 3-6, 6-7, 6-8
		t.Errorf("failed links = %v", b.FailedLinks)
	}
}

func TestInjectNoise(t *testing.T) {
	n := Fig1Network(1000)
	b, err := n.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), DefaultTiming(1))
	if err != nil {
		t.Fatal(err)
	}
	before := b.Size
	b.InjectNoise(n, 50, 9)
	if b.Size != before+50 {
		t.Errorf("size = %d, want %d", b.Size, before+50)
	}
	affected := map[uint32]bool{}
	for _, o := range b.WithdrawnOrigins {
		affected[o] = true
	}
	noise := 0
	for _, ev := range b.Events {
		if ev.Kind == KindWithdraw && !affected[ev.Origin] {
			noise++
		}
	}
	if noise != 50 {
		t.Errorf("noise events = %d, want 50", noise)
	}
}

func TestSolveGeneratedTopologyReachability(t *testing.T) {
	g := topology.Generate(topology.GenConfig{NumASes: 300, AvgDegree: 8, Seed: 2})
	pol := &Policy{}
	// Every AS must reach a tier-1 origin (valley-free routing over a
	// connected scale-free graph reaches everyone through providers).
	tiers := g.Tiers()
	var t1 uint32
	for as, tier := range tiers {
		if tier == 1 {
			t1 = as
			break
		}
	}
	sol := SolveOrigin(g, pol, t1)
	unreached := 0
	for _, as := range g.ASes() {
		if as != t1 && !sol.RouteAt(as).Valid() {
			unreached++
		}
	}
	if unreached > 0 {
		t.Errorf("%d ASes cannot reach tier-1 origin %d", unreached, t1)
	}
}

func TestSolveValleyFree(t *testing.T) {
	g := topology.Generate(topology.GenConfig{NumASes: 200, AvgDegree: 8, Seed: 4})
	pol := &Policy{}
	for _, origin := range []uint32{1, 17, 42, 100, 199} {
		sol := SolveOrigin(g, pol, origin)
		for _, as := range g.ASes() {
			path := sol.FullPathAt(as)
			if path == nil {
				continue
			}
			if path[len(path)-1] != origin {
				t.Fatalf("path %v does not end at origin %d", path, origin)
			}
			// Valley-free: relationship sequence must be ups, then at
			// most one peer step, then downs. Walk from the origin
			// backwards: seen from the traffic direction (as -> origin),
			// each step as->next is valid if ... check no provider step
			// after a customer/peer step in the traffic direction.
			// Traffic goes path[0] -> path[end]. Step i: path[i]→path[i+1].
			phase := 0 // 0 = climbing (towards providers), 1 = after peer, 2 = descending
			for i := 0; i+1 < len(path); i++ {
				rel, ok := g.RelOf(path[i], path[i+1])
				if !ok {
					t.Fatalf("path %v uses non-adjacent step %d", path, i)
				}
				switch rel {
				case topology.RelProvider: // climbing
					if phase != 0 {
						t.Fatalf("valley in path %v at step %d", path, i)
					}
				case topology.RelPeer:
					if phase >= 1 {
						t.Fatalf("two peer steps in path %v", path)
					}
					phase = 1
				case topology.RelCustomer:
					phase = 2
				}
			}
			// No routing loop.
			seen := map[uint32]bool{}
			for _, as2 := range path {
				if seen[as2] {
					t.Fatalf("loop in path %v", path)
				}
				seen[as2] = true
			}
		}
	}
}

func TestSolveShortestWithinClass(t *testing.T) {
	// Diamond: origin 10 has two providers 20 (chain of 2) and 30
	// (direct) to vantage 40's neighbor; the shorter same-class path
	// must win.
	g := topology.New()
	g.AddCustomerProvider(10, 20)
	g.AddCustomerProvider(10, 30)
	g.AddCustomerProvider(20, 21)
	g.AddCustomerProvider(21, 40)
	g.AddCustomerProvider(30, 40)
	sol := SolveOrigin(g, &Policy{}, 10)
	r := sol.RouteAt(40)
	if !pathEq(r.Path, 30, 10) {
		t.Errorf("route = %v, want [30 10]", r.Path)
	}
}

func TestPreferOverride(t *testing.T) {
	g := topology.New()
	g.AddCustomerProvider(10, 20)
	g.AddCustomerProvider(10, 30)
	g.AddCustomerProvider(40, 20) // 40 buys from 20
	g.AddCustomerProvider(40, 30) // and from 30
	pol := &Policy{Prefer: map[uint32][]uint32{40: {30, 20}}}
	sol := SolveOrigin(g, pol, 10)
	r := sol.RouteAt(40)
	if r.NextHop() != 30 {
		t.Errorf("next hop = %d, want 30 (explicit preference)", r.NextHop())
	}
}

func TestProviderRouteRelaxation(t *testing.T) {
	// A node whose provider first offers a long customer-path route
	// must end with the shorter provider-chain route. Build: origin 1;
	// long customer chain 1→2→3→4 (all c2p); tier chain 1→9, 9→8, 8→4
	// shorter... Construct explicitly:
	g := topology.New()
	// Long climb: 1 is customer of 2, 2 of 3, 3 of 4.
	g.AddCustomerProvider(1, 2)
	g.AddCustomerProvider(2, 3)
	g.AddCustomerProvider(3, 4)
	// 5 is a customer of 4 and of 6; 6 peers with 7; 7 is provider of 1.
	g.AddCustomerProvider(5, 4)
	g.AddCustomerProvider(5, 6)
	g.AddCustomerProvider(1, 7) // 7 learns customer route [1] directly
	g.AddPeers(6, 7)
	sol := SolveOrigin(g, &Policy{}, 1)
	// 5's options: via provider 4 (provider route, path [4 3 2 1]) or
	// via provider 6 (provider route via peer 7: [6 7 1]).
	r := sol.RouteAt(5)
	if !pathEq(r.Path, 6, 7, 1) {
		t.Errorf("AS5 route = %v, want [6 7 1]", r.Path)
	}
}

func TestTimingShapesBurst(t *testing.T) {
	n := Fig1Network(5000)
	b, err := n.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), DefaultTiming(11))
	if err != nil {
		t.Fatal(err)
	}
	// 11k messages at ~400us mean spacing: the burst must span seconds,
	// not milliseconds, and not minutes.
	d := b.Duration()
	if d < time.Second || d > 2*time.Minute {
		t.Errorf("burst duration = %v; timing model out of calibration", d)
	}
}

// TestFIBWrites pins the vanilla router's write schedule: a message
// arriving while the FIB is busy waits for the previous write, one
// arriving after an idle gap starts at its arrival.
func TestFIBWrites(t *testing.T) {
	ms := time.Millisecond
	b := &Burst{Events: []Event{{At: 0}, {At: 0}, {At: 1 * ms}, {At: 10 * ms}, {At: 10 * ms}}}
	got := b.FIBWrites(2 * ms)
	want := []time.Duration{2 * ms, 4 * ms, 6 * ms, 12 * ms, 14 * ms}
	if len(got) != len(want) {
		t.Fatalf("FIBWrites = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FIBWrites = %v, want %v", got, want)
		}
	}
}
