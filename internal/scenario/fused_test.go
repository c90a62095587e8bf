package scenario

import (
	"bytes"
	"testing"
	"time"
)

// TestFusedSmokeMatrixDeterminism is the fused-mode half of the
// determinism contract: the same matrix and seed evaluated with
// fleet-level evidence fusion produce byte-identical JSON, and the
// fused report differs from (is not accidentally aliased to) the
// per-peer one on a matrix that contains multi-session scenarios.
func TestFusedSmokeMatrixDeterminism(t *testing.T) {
	rep, err := RunMode("smoke", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeFused {
		t.Fatalf("report mode = %q, want %q", rep.Mode, ModeFused)
	}
	again, err := RunMode("smoke", 1, true)
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
		t.Error("two fused runs with the same seed produced different JSON reports")
	}
	pp, err := RunMode("smoke", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	jp, err := pp.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ja, jp) {
		t.Error("fused and per-peer smoke reports are byte-identical (mode tag missing?)")
	}
	// Fused must keep the smoke gate: strictly fewer packets lost than
	// the vanilla router on every remote failure.
	for _, r := range rep.Scenarios {
		if r.Remote && r.SwiftLost >= r.BGPLost {
			t.Errorf("%s: fused SWIFT lost %d >= vanilla %d on a remote failure", r.Name, r.SwiftLost, r.BGPLost)
		}
	}
}

// TestFusedNeverWorse is the acceptance gate for cross-peer fusion on
// the full default matrix: against per-peer SWIFT on the identical
// seed,
//
//   - single-session scenarios (and multi-session ones whose extra
//     sessions never burst) are unchanged — the fusion gate is inert
//     below MinBursting;
//   - on every scenario, fused never loses more packets, never has a
//     later mean time-to-restore, and never predicts more false
//     positives;
//   - on the multi-session fig1 scenarios (three genuinely bursting
//     vantages), fused strictly reduces both packets lost and mean
//     time-to-restore.
func TestFusedNeverWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in short mode")
	}
	pp, err := RunMode("default", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	fu, err := RunMode("default", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Scenarios) != len(fu.Scenarios) {
		t.Fatalf("scenario counts diverge: %d vs %d", len(pp.Scenarios), len(fu.Scenarios))
	}
	strictlyBetter := 0
	for i, pr := range pp.Scenarios {
		fr := fu.Scenarios[i]
		if pr.Name != fr.Name {
			t.Fatalf("scenario %d: name %q vs %q", i, pr.Name, fr.Name)
		}
		if fr.SwiftLost > pr.SwiftLost {
			t.Errorf("%s: fused lost %d > per-peer %d", pr.Name, fr.SwiftLost, pr.SwiftLost)
		}
		var ppRestore, fuRestore time.Duration
		ppFP, fuFP := 0, 0
		for j, p := range pr.Peers {
			f := fr.Peers[j]
			ppRestore += p.SwiftRestore
			fuRestore += f.SwiftRestore
			ppFP += p.FP
			fuFP += f.FP
			if len(pr.Peers) == 1 && (f.SwiftLost != p.SwiftLost || f.SwiftRestore != p.SwiftRestore || f.FP != p.FP || f.FN != p.FN) {
				t.Errorf("%s: single-session scenario changed under fusion: lost %d->%d restore %v->%v fp %d->%d",
					pr.Name, p.SwiftLost, f.SwiftLost, p.SwiftRestore, f.SwiftRestore, p.FP, f.FP)
			}
		}
		if fuRestore > ppRestore {
			t.Errorf("%s: fused mean restore %v > per-peer %v", pr.Name, fuRestore, ppRestore)
		}
		if fuFP > ppFP {
			t.Errorf("%s: fused FP %d > per-peer %d", pr.Name, fuFP, ppFP)
		}
		if len(pr.Peers) > 1 && fr.SwiftLost < pr.SwiftLost && fuRestore < ppRestore {
			strictlyBetter++
		}
	}
	// The three-vantage fig1 scenarios (x150 and x300) must both be
	// strict wins — that is the point of fusing.
	if strictlyBetter < 2 {
		t.Errorf("strictly-better multi-session scenarios = %d, want >= 2", strictlyBetter)
	}
	if fu.SwiftLost >= pp.SwiftLost {
		t.Errorf("matrix total: fused lost %d >= per-peer %d", fu.SwiftLost, pp.SwiftLost)
	}
}

// TestFusedMultiPeerEngagement pins the mechanism, not just the
// outcome: on the three-peer fig1 scenario the fused run must apply
// external verdicts to at least one session and veto at least one
// wrong-link inference, and every session keeps FNR zero.
func TestFusedMultiPeerEngagement(t *testing.T) {
	specs, err := Matrix("fig1", 1)
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	for _, spec := range specs {
		if spec.Peers < 3 {
			continue
		}
		sc, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sc.Eval(true)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Mode != ModeFused {
			t.Fatalf("%s: report mode = %q, want %q", spec.Name, rep.Mode, ModeFused)
		}
		ran = true
		external, vetoed := 0, 0
		for _, p := range rep.Peers {
			external += p.External
			vetoed += p.Vetoed
			if p.FNR != 0 {
				t.Errorf("%s %s: fused FNR = %v, want 0", spec.Name, p.Peer, p.FNR)
			}
		}
		if external == 0 {
			t.Errorf("%s: no external verdicts applied in fused mode", spec.Name)
		}
		if vetoed == 0 {
			t.Errorf("%s: no conflicting inferences vetoed in fused mode", spec.Name)
		}
	}
	if !ran {
		t.Fatal("fig1 matrix has no 3-peer scenario")
	}
}
