package fusion

import (
	"testing"
	"time"

	"swift/internal/event"
	"swift/internal/netaddr"
	"swift/internal/rib"
	"swift/internal/topology"
)

var (
	peerA = event.PeerKey{AS: 65001, BGPID: 1}
	peerB = event.PeerKey{AS: 65002, BGPID: 2}
	peerC = event.PeerKey{AS: 65003, BGPID: 3}

	linkX = topology.Link{A: 5, B: 6}
	linkY = topology.Link{A: 6, B: 8}
)

func newTestAgg(cfg Config) *Aggregator {
	return NewAggregator(cfg, rib.NewPool())
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func prop(peer event.PeerKey, at time.Duration, fs float64, links ...topology.Link) Proposal {
	return Proposal{Peer: peer, At: at, Links: links, FS: fs, Received: 10}
}

func TestGateOffBelowMinBursting(t *testing.T) {
	a := newTestAgg(Config{})
	a.BurstStart(peerA, ms(10))
	// One bursting peer: no corroboration context, everything acts and
	// nothing confirms — per-peer SWIFT exactly.
	if ans := a.Propose(prop(peerA, ms(12), 0.99, linkX)); !ans.Act {
		t.Fatalf("single-burst proposal vetoed: %+v", ans)
	}
	if _, ok := a.Snapshot(ms(12)); ok {
		t.Fatal("verdict formed with a single bursting peer")
	}
}

func TestStrongProposalPath(t *testing.T) {
	a := newTestAgg(Config{})
	a.BurstStart(peerA, ms(10))
	a.BurstStart(peerB, ms(20))
	if ans := a.Propose(prop(peerA, ms(30), 0.90, linkX)); !ans.Act {
		t.Fatalf("strong proposal vetoed: %+v", ans)
	}
	v, ok := a.Snapshot(ms(30))
	if !ok {
		t.Fatal("strong proposal with 2 bursting peers should confirm")
	}
	if len(v.Links) != 1 || v.Links[0] != linkX {
		t.Fatalf("verdict links = %v, want [%v]", v.Links, linkX)
	}
	if v.Supporters != 1 {
		t.Fatalf("supporters = %d, want 1", v.Supporters)
	}
}

func TestKOfNCorroboration(t *testing.T) {
	a := newTestAgg(Config{})
	a.BurstStart(peerA, ms(10))
	a.BurstStart(peerB, ms(20))
	// Each alone is below FuseThreshold (0.85); noisy-OR of two 0.7s is
	// 1 - 0.3*0.3 = 0.91 >= 0.85 with K=2 supporters.
	a.Propose(prop(peerA, ms(30), 0.70, linkX))
	if _, ok := a.Snapshot(ms(30)); ok {
		t.Fatal("one weak proposal should not confirm")
	}
	a.Propose(prop(peerB, ms(35), 0.70, linkX))
	v, ok := a.Snapshot(ms(35))
	if !ok {
		t.Fatal("two corroborating weak proposals should confirm")
	}
	if v.Supporters != 2 {
		t.Fatalf("supporters = %d, want 2", v.Supporters)
	}
	if len(v.Links) != 1 || v.Links[0] != linkX {
		t.Fatalf("verdict links = %v, want [%v]", v.Links, linkX)
	}
}

func TestKOfNNeedsFusedThreshold(t *testing.T) {
	a := newTestAgg(Config{})
	a.BurstStart(peerA, ms(10))
	a.BurstStart(peerB, ms(20))
	// Noisy-OR of two 0.5s is 0.75 < 0.85: agreement without enough
	// combined confidence stays unconfirmed.
	a.Propose(prop(peerA, ms(30), 0.50, linkX))
	a.Propose(prop(peerB, ms(35), 0.50, linkX))
	if _, ok := a.Snapshot(ms(35)); ok {
		t.Fatal("two 0.5-FS proposals should not reach the fused threshold")
	}
}

func TestConflictVeto(t *testing.T) {
	a := newTestAgg(Config{})
	a.BurstStart(peerA, ms(10))
	a.BurstStart(peerB, ms(20))
	a.Propose(prop(peerA, ms(30), 0.80, linkX))
	// Disjoint and more than ConflictMargin weaker: vetoed.
	ans := a.Propose(prop(peerB, ms(35), 0.60, linkY))
	if ans.Act {
		t.Fatal("disjoint weaker proposal should be vetoed")
	}
	if ans.ConflictFS != 0.80 {
		t.Fatalf("ConflictFS = %v, want 0.80", ans.ConflictFS)
	}
	// Agreeing with the stronger opinion: acts.
	if ans := a.Propose(prop(peerB, ms(40), 0.60, linkX)); !ans.Act {
		t.Fatalf("verdict-consistent proposal vetoed: %+v", ans)
	}
	// Disjoint but within the margin: acts (no material conflict).
	a.Propose(prop(peerA, ms(45), 0.65, linkX))
	if ans := a.Propose(prop(peerB, ms(50), 0.60, linkY)); !ans.Act {
		t.Fatalf("within-margin disjoint proposal vetoed: %+v", ans)
	}
}

func TestVerdictConsistentAlwaysActs(t *testing.T) {
	a := newTestAgg(Config{})
	a.BurstStart(peerA, ms(10))
	a.BurstStart(peerB, ms(20))
	a.BurstStart(peerC, ms(25))
	a.Propose(prop(peerA, ms(30), 0.90, linkX)) // confirms linkX
	// peerB proposes the confirmed link with a tiny score while peerC
	// holds strong disjoint evidence: verdict consistency wins.
	a.Propose(prop(peerC, ms(32), 0.95, linkY))
	if ans := a.Propose(prop(peerB, ms(35), 0.40, linkX)); !ans.Act {
		t.Fatalf("proposal matching the verdict vetoed: %+v", ans)
	}
}

func TestSupersession(t *testing.T) {
	a := newTestAgg(Config{})
	a.BurstStart(peerA, ms(10))
	a.BurstStart(peerB, ms(20))
	// Both peers briefly agree on the wrong link, then peerA moves on.
	// The superseded opinion must stop corroborating linkY.
	a.Propose(prop(peerA, ms(30), 0.70, linkY))
	a.Propose(prop(peerA, ms(40), 0.90, linkX))
	a.Propose(prop(peerB, ms(45), 0.70, linkY))
	v, ok := a.Snapshot(ms(45))
	if !ok {
		t.Fatal("expected a verdict")
	}
	if len(v.Links) != 1 || v.Links[0] != linkX {
		t.Fatalf("verdict links = %v, want only %v (stale linkY evidence must not count)", v.Links, linkX)
	}
}

func TestBurstEndRetractsEvidence(t *testing.T) {
	a := newTestAgg(Config{})
	a.BurstStart(peerA, ms(10))
	a.BurstStart(peerB, ms(20))
	a.Propose(prop(peerA, ms(30), 0.70, linkX))
	a.Propose(prop(peerB, ms(35), 0.70, linkX))
	if _, ok := a.Snapshot(ms(35)); !ok {
		t.Fatal("expected a verdict before burst end")
	}
	a.BurstEnd(peerA, ms(40))
	if _, ok := a.Snapshot(ms(40)); ok {
		t.Fatal("verdict should drop when corroboration context collapses")
	}
}

func TestRetract(t *testing.T) {
	a := newTestAgg(Config{})
	a.BurstStart(peerA, ms(10))
	a.BurstStart(peerB, ms(20))
	a.Propose(prop(peerA, ms(30), 0.90, linkX))
	if _, ok := a.Snapshot(ms(30)); !ok {
		t.Fatal("expected a verdict")
	}
	a.Retract(peerA)
	if _, ok := a.Snapshot(ms(31)); ok {
		t.Fatal("verdict should not survive its only supporter's teardown")
	}
	st := a.Stats()
	if st.Peers != 1 || st.Bursting != 1 {
		t.Fatalf("after retract: peers=%d bursting=%d, want 1/1", st.Peers, st.Bursting)
	}
}

func TestTTLDecay(t *testing.T) {
	a := newTestAgg(Config{TTL: 100 * time.Millisecond})
	a.BurstStart(peerA, ms(10))
	a.BurstStart(peerB, ms(20))
	a.Propose(prop(peerA, ms(30), 0.90, linkX))
	if _, ok := a.Snapshot(ms(50)); !ok {
		t.Fatal("expected a verdict within TTL")
	}
	if _, ok := a.Snapshot(ms(200)); ok {
		t.Fatal("evidence older than TTL should stop confirming")
	}
}

func TestEpochSemantics(t *testing.T) {
	a := newTestAgg(Config{})
	a.BurstStart(peerA, ms(10))
	a.BurstStart(peerB, ms(20))
	a.Propose(prop(peerA, ms(30), 0.90, linkX))
	v1, ok := a.Snapshot(ms(30))
	if !ok {
		t.Fatal("expected a verdict")
	}
	// Re-snapshotting an unchanged link set keeps the epoch.
	v2, _ := a.Snapshot(ms(31))
	if v2.Epoch != v1.Epoch {
		t.Fatalf("epoch moved without a link-set change: %d -> %d", v1.Epoch, v2.Epoch)
	}
	// Adding a peer's corroboration of the same link: same set, same epoch.
	a.Propose(prop(peerB, ms(35), 0.70, linkX))
	v3, _ := a.Snapshot(ms(35))
	if v3.Epoch != v1.Epoch {
		t.Fatalf("epoch moved on unchanged link set: %d -> %d", v1.Epoch, v3.Epoch)
	}
	if v3.Supporters != 2 {
		t.Fatalf("supporters = %d, want 2", v3.Supporters)
	}
	// Dropping the verdict bumps the epoch.
	a.BurstEnd(peerA, ms(40))
	a.BurstEnd(peerB, ms(41))
	v4, ok := a.Snapshot(ms(41))
	if ok {
		t.Fatal("verdict should be empty after both bursts end")
	}
	if v4.Epoch == v3.Epoch {
		t.Fatal("epoch should bump when the link set empties")
	}
}

func TestVerdictPredictedIsSupportersWithdrawnUnion(t *testing.T) {
	a := newTestAgg(Config{})
	a.BurstStart(peerA, ms(10))
	a.BurstStart(peerB, ms(20))
	a.BurstStart(peerC, ms(25))
	p1 := netaddr.MustParsePrefix("10.0.0.0/24")
	p2 := netaddr.MustParsePrefix("10.0.1.0/24")
	p3 := netaddr.MustParsePrefix("10.9.0.0/16")
	pa := prop(peerA, ms(30), 0.90, linkX)
	pa.Withdrawn = []netaddr.Prefix{p2, p1}
	a.Propose(pa)
	pb := prop(peerB, ms(35), 0.60, linkX)
	pb.Withdrawn = []netaddr.Prefix{p1, p3}
	a.Propose(pb)
	// peerC supports a different link: its withdrawn set must not leak in.
	pc := prop(peerC, ms(36), 0.95, linkY)
	pc.Withdrawn = []netaddr.Prefix{netaddr.MustParsePrefix("172.16.0.0/12")}
	a.Propose(pc)

	v, ok := a.Snapshot(ms(36))
	if !ok {
		t.Fatal("expected a verdict")
	}
	hasX := false
	for _, l := range v.Links {
		if l == linkX {
			hasX = true
		}
	}
	if !hasX {
		t.Fatalf("verdict links = %v, want %v present", v.Links, linkX)
	}
	if v.Links[0] != linkX || len(v.Links) < 1 {
		t.Fatalf("verdict links unsorted: %v", v.Links)
	}
	// linkY is also confirmed (FS 0.95), so its supporter's withdrawn set
	// is legitimately in the union. Check the linkX supporters' prefixes
	// are present, sorted and deduped.
	want := map[netaddr.Prefix]bool{p1: true, p2: true, p3: true}
	seen := map[netaddr.Prefix]int{}
	for _, p := range v.Predicted {
		seen[p]++
	}
	for p := range want {
		if seen[p] != 1 {
			t.Fatalf("predicted %v appears %d times, want exactly 1 (set: %v)", p, seen[p], v.Predicted)
		}
	}
	for i := 1; i < len(v.Predicted); i++ {
		if v.Predicted[i-1] >= v.Predicted[i] {
			t.Fatalf("predicted not strictly sorted: %v", v.Predicted)
		}
	}
}

func TestOnVerdictHook(t *testing.T) {
	var got []int
	a := newTestAgg(Config{OnVerdict: func(_ topology.Link, supporters int, _ float64) {
		got = append(got, supporters)
	}})
	a.BurstStart(peerA, ms(10))
	a.BurstStart(peerB, ms(20))
	a.Propose(prop(peerA, ms(30), 0.70, linkX))
	a.Propose(prop(peerB, ms(35), 0.70, linkX))
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("OnVerdict fired %v, want once with 2 supporters", got)
	}
	// Confirmation is edge-triggered: further snapshots don't refire.
	a.Snapshot(ms(40))
	if len(got) != 1 {
		t.Fatalf("OnVerdict refired on unchanged verdict: %v", got)
	}
}

func TestStatsCounters(t *testing.T) {
	a := newTestAgg(Config{})
	a.BurstStart(peerA, ms(10))
	a.BurstStart(peerB, ms(20))
	a.Propose(prop(peerA, ms(30), 0.80, linkX))
	a.Propose(prop(peerB, ms(35), 0.60, linkY)) // vetoed
	st := a.Stats()
	if st.EvidenceEvents != 2 {
		t.Fatalf("evidence events = %d, want 2", st.EvidenceEvents)
	}
	if st.Vetoes != 1 {
		t.Fatalf("vetoes = %d, want 1", st.Vetoes)
	}
	if st.Peers != 2 || st.Bursting != 2 {
		t.Fatalf("peers=%d bursting=%d, want 2/2", st.Peers, st.Bursting)
	}
}

// TestProposeCopiesWithdrawn pins that the aggregator keeps its own
// copy of a proposal's Withdrawn set: engines pass a slice of their
// reused decision scratch and overwrite it on the next decision.
func TestProposeCopiesWithdrawn(t *testing.T) {
	a := newTestAgg(Config{})
	a.BurstStart(peerA, ms(10))
	a.BurstStart(peerB, ms(20))
	scratch := []netaddr.Prefix{netaddr.PrefixFor(8, 0), netaddr.PrefixFor(8, 1)}
	p := prop(peerA, ms(30), 0.90, linkX)
	p.Withdrawn = scratch
	a.Propose(p)
	for i := range scratch {
		scratch[i] = netaddr.PrefixFor(9, i)
	}
	v, ok := a.Snapshot(ms(30))
	if !ok {
		t.Fatal("strong proposal with 2 bursting peers should confirm")
	}
	want := []netaddr.Prefix{netaddr.PrefixFor(8, 0), netaddr.PrefixFor(8, 1)}
	if len(v.Predicted) != len(want) || v.Predicted[0] != want[0] || v.Predicted[1] != want[1] {
		t.Errorf("verdict predicts %v after the proposer reused its buffer, want %v", v.Predicted, want)
	}
}
