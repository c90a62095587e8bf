package scenario

import (
	"bytes"
	"testing"
	"time"
)

func TestMatrixNamesResolve(t *testing.T) {
	for _, name := range MatrixNames() {
		specs, err := Matrix(name, 1)
		if err != nil {
			t.Fatalf("Matrix(%q): %v", name, err)
		}
		if len(specs) == 0 {
			t.Fatalf("Matrix(%q) is empty", name)
		}
		seen := make(map[string]bool)
		for _, s := range specs {
			if seen[s.Name] {
				t.Errorf("Matrix(%q): duplicate scenario name %q", name, s.Name)
			}
			seen[s.Name] = true
		}
	}
	if _, err := Matrix("no-such-matrix", 1); err == nil {
		t.Error("unknown matrix name did not error")
	}
}

func TestDefaultMatrixSize(t *testing.T) {
	specs, err := Matrix("default", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 50 {
		t.Fatalf("default matrix has %d scenarios, want >= 50", len(specs))
	}
}

func TestBuildFig1(t *testing.T) {
	sc, err := Build(Spec{Name: "t", Seed: 5, Topology: TopoFig1, PrefixesPerOrigin: 150, HopsAway: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Vantage != 1 {
		t.Errorf("Fig1 vantage = %d, want 1", sc.Vantage)
	}
	if len(sc.Sessions) != 1 || sc.Sessions[0].Neighbor != 2 {
		t.Errorf("Fig1 primary session = %+v, want neighbor 2", sc.Sessions[0].Neighbor)
	}
	// The paper's failure: the (5,6) link, two hops past the vantage.
	if len(sc.Failed) != 1 || sc.Failed[0].A != 5 || sc.Failed[0].B != 6 {
		t.Errorf("Fig1 failure = %v, want (5,6)", sc.Failed)
	}
	if sc.Sessions[0].Burst.Size == 0 {
		t.Error("Fig1 burst carries no withdrawals")
	}
	// Oracle: post-failure, AS 3 still reaches the withdrawn origins
	// (the backup SWIFT uses), AS 2 does not.
	if !sc.oracleValid(3, 8, 0) {
		t.Error("oracle: AS3 should reach S8 post-failure")
	}
	if sc.oracleValid(2, 8, 0) {
		t.Error("oracle: AS2 should not reach S8 post-failure")
	}
}

// TestSmokeMatrix is the end-to-end gate: the smoke matrix must be
// byte-deterministic and SWIFT must lose strictly fewer packets than
// the vanilla router on every remote-failure scenario.
func TestSmokeMatrix(t *testing.T) {
	rep, err := RunMode("smoke", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunMode("smoke", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := again.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Error("two runs with the same seed produced different JSON reports")
	}
	for _, r := range rep.Scenarios {
		if r.PacketsSent == 0 {
			t.Errorf("%s: no packets evaluated", r.Name)
		}
		if r.Remote && r.SwiftLost >= r.BGPLost {
			t.Errorf("%s: SWIFT lost %d >= vanilla %d on a remote failure", r.Name, r.SwiftLost, r.BGPLost)
		}
	}
	if rep.RemoteScenarios == 0 || rep.RemoteSwiftWins != rep.RemoteScenarios {
		t.Errorf("remote wins %d / %d", rep.RemoteSwiftWins, rep.RemoteScenarios)
	}
	// A different seed produces a different (but internally consistent)
	// report.
	other, err := RunMode("smoke", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	jo, err := other.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ja, jo) {
		t.Error("different seeds produced identical reports")
	}
}

// TestDefaultMatrix runs the full >= 50-scenario matrix — the
// acceptance gate behind cmd/swift-eval: deterministic, and strictly
// lower loss with SWIFT on every remote failure.
func TestDefaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in short mode")
	}
	rep, err := RunMode("default", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) < 50 {
		t.Fatalf("default matrix evaluated %d scenarios, want >= 50", len(rep.Scenarios))
	}
	for _, r := range rep.Scenarios {
		if r.Remote && r.SwiftLost >= r.BGPLost {
			t.Errorf("%s: SWIFT lost %d >= vanilla %d on a remote failure", r.Name, r.SwiftLost, r.BGPLost)
		}
	}
	if rep.RemoteSwiftWins != rep.RemoteScenarios {
		t.Errorf("remote wins %d / %d", rep.RemoteSwiftWins, rep.RemoteScenarios)
	}
	again, err := RunMode("default", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := again.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Error("two default-matrix runs with the same seed diverged")
	}
}

// TestPredictionMetrics pins the oracle comparison: on the clean Fig. 1
// failure every withdrawn prefix must be predicted (FNR 0) and the
// false-positive rate must stay small.
func TestPredictionMetrics(t *testing.T) {
	sc, err := Build(Spec{Name: "t", Seed: 9, Topology: TopoFig1, PrefixesPerOrigin: 150, HopsAway: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Eval()
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Peers[0]
	if p.Decisions == 0 {
		t.Fatal("no inference decisions")
	}
	if p.FNR != 0 {
		t.Errorf("FNR = %v, want 0 (every withdrawn prefix predicted)", p.FNR)
	}
	if p.FPR > 0.5 {
		t.Errorf("FPR = %v, implausibly high", p.FPR)
	}
	// S8 is restored early by the reroute; S6's prefixes cannot be
	// diverted endpoint-free (AS 6 is an endpoint of the failed link),
	// so a late tail withdrawal can bound both restore times — SWIFT
	// must never restore later, and must lose strictly less overall.
	if p.SwiftRestore > p.BGPRestore {
		t.Errorf("SWIFT restored at %v, after vanilla at %v", p.SwiftRestore, p.BGPRestore)
	}
	if p.SwiftLost >= p.BGPLost {
		t.Errorf("SWIFT lost %d >= vanilla %d", p.SwiftLost, p.BGPLost)
	}
}

// TestFlapScenario pins the transient-failure path: routes come back,
// both routers re-converge, and the recovery instant flips the oracle.
func TestFlapScenario(t *testing.T) {
	sc, err := Build(Spec{
		Name: "t", Seed: 4, Topology: TopoFig1, PrefixesPerOrigin: 150,
		HopsAway: 2, Flap: true, FlapDelay: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.recoverAt == 0 {
		t.Fatal("flap scenario has no recovery instant")
	}
	// Before recovery the failed primary is invalid; after it is valid
	// again.
	if sc.oracleValid(2, 8, sc.recoverAt-time.Millisecond) {
		t.Error("oracle valid via AS2 before recovery")
	}
	if !sc.oracleValid(2, 8, sc.recoverAt) {
		t.Error("oracle invalid via AS2 after recovery")
	}
	rep, err := sc.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SwiftLost >= rep.BGPLost {
		t.Errorf("flap: SWIFT lost %d >= vanilla %d", rep.SwiftLost, rep.BGPLost)
	}
}

// TestMultiPeerScoring pins that fleet runs score loss per peer: the
// two bursting sessions reroute independently, and the quiet session
// reports no decisions.
func TestMultiPeerScoring(t *testing.T) {
	sc, err := Build(Spec{
		Name: "t", Seed: 11, Topology: TopoFig1, PrefixesPerOrigin: 150,
		HopsAway: 2, Peers: 3, PeerSkew: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Sessions) != 3 {
		t.Fatalf("sessions = %d, want 3", len(sc.Sessions))
	}
	rep, err := sc.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Peers) != 3 {
		t.Fatalf("peer reports = %d, want 3", len(rep.Peers))
	}
	bursting := 0
	for _, p := range rep.Peers {
		if p.Decisions > 0 {
			bursting++
			if p.SwiftLost >= p.BGPLost {
				t.Errorf("peer %s: SWIFT lost %d >= vanilla %d", p.Peer, p.SwiftLost, p.BGPLost)
			}
		}
	}
	// Sessions 2 and 4 lose S6/S8 over the (5,6) link; session 3 loses
	// its provider-learned routes to ASes 2 and 5 (partial transit bars
	// it from using AS 5's exports). Every session must reroute on its
	// own burst.
	if bursting != 3 {
		t.Errorf("bursting peers = %d, want 3", bursting)
	}
}
