package scenario

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"time"
)

// ModeAggregate folds one mode's per-session rows of a scenario family
// into comparable totals. MeanRestore averages the sessions'
// time-to-restore (sessions that never lost a packet contribute zero,
// in both modes alike); FPR and FNR are unweighted session means.
type ModeAggregate struct {
	Lost        int64         `json:"lost"`
	MeanRestore time.Duration `json:"mean_restore_ns"`
	FP          int           `json:"fp"`
	FN          int           `json:"fn"`
	FPR         float64       `json:"fpr"`
	FNR         float64       `json:"fnr"`
	External    int           `json:"external_decisions,omitempty"`
	Vetoed      int           `json:"vetoed,omitempty"`
}

// FamilyDelta is one row of the per-peer vs fused comparison: a
// scenario family (the matrix name with size tokens stripped, so
// fig1-x150-3peer and fig1-x300-3peer fold into fig1-3peer) aggregated
// over every scenario and session in it, under both modes.
type FamilyDelta struct {
	Family       string        `json:"family"`
	Scenarios    int           `json:"scenarios"`
	Sessions     int           `json:"sessions"`
	MultiSession bool          `json:"multi_session"`
	PerPeer      ModeAggregate `json:"per_peer"`
	Fused        ModeAggregate `json:"fused"`
}

// ModeComparison is the paired-run output of CompareScenarioModes: the
// two full matrix reports plus the per-family fold.
type ModeComparison struct {
	Matrix   string        `json:"matrix"`
	Seed     int64         `json:"seed"`
	Families []FamilyDelta `json:"families"`
	PerPeer  *MatrixReport `json:"per_peer"`
	Fused    *MatrixReport `json:"fused"`
}

// JSON renders the comparison with stable formatting (deterministic for
// a fixed matrix and seed, like the underlying reports).
func (c *ModeComparison) JSON() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// sizeToken matches the scale components of scenario names ("-x150",
// "-n28") so size variants of one shape collapse into a family.
var sizeToken = regexp.MustCompile(`-(x|n)[0-9]+`)

// FamilyOf maps a scenario name to its comparison family.
func FamilyOf(name string) string { return sizeToken.ReplaceAllString(name, "") }

// CompareScenarioModes runs the named matrix under both evaluation
// modes on the same seed (identical scenarios, events and flows) and
// folds the outcome per scenario family.
func CompareScenarioModes(name string, seed int64) (*ModeComparison, error) {
	pp, err := RunMode(name, seed, false)
	if err != nil {
		return nil, err
	}
	fu, err := RunMode(name, seed, true)
	if err != nil {
		return nil, err
	}
	c := &ModeComparison{Matrix: name, Seed: seed, PerPeer: pp, Fused: fu}

	type acc struct {
		delta        FamilyDelta
		ppRestore    time.Duration
		fuRestore    time.Duration
		ppFPR, ppFNR float64
		fuFPR, fuFNR float64
	}
	byFamily := make(map[string]*acc)
	var order []string
	for i, pr := range pp.Scenarios {
		fr := fu.Scenarios[i]
		if pr.Name != fr.Name {
			return nil, fmt.Errorf("scenario: mode reports diverge at scenario %d: %q vs %q", i, pr.Name, fr.Name)
		}
		fam := FamilyOf(pr.Name)
		a := byFamily[fam]
		if a == nil {
			a = &acc{delta: FamilyDelta{Family: fam}}
			byFamily[fam] = a
			order = append(order, fam)
		}
		a.delta.Scenarios++
		a.delta.Sessions += len(pr.Peers)
		if len(pr.Peers) > 1 {
			a.delta.MultiSession = true
		}
		a.delta.PerPeer.Lost += pr.SwiftLost
		a.delta.Fused.Lost += fr.SwiftLost
		for _, p := range pr.Peers {
			a.ppRestore += p.SwiftRestore
			a.ppFPR += p.FPR
			a.ppFNR += p.FNR
			a.delta.PerPeer.FP += p.FP
			a.delta.PerPeer.FN += p.FN
		}
		for _, p := range fr.Peers {
			a.fuRestore += p.SwiftRestore
			a.fuFPR += p.FPR
			a.fuFNR += p.FNR
			a.delta.Fused.FP += p.FP
			a.delta.Fused.FN += p.FN
			a.delta.Fused.External += p.External
			a.delta.Fused.Vetoed += p.Vetoed
		}
	}
	sort.Strings(order)
	for _, fam := range order {
		a := byFamily[fam]
		n := a.delta.Sessions
		if n > 0 {
			a.delta.PerPeer.MeanRestore = a.ppRestore / time.Duration(n)
			a.delta.Fused.MeanRestore = a.fuRestore / time.Duration(n)
			a.delta.PerPeer.FPR = a.ppFPR / float64(n)
			a.delta.PerPeer.FNR = a.ppFNR / float64(n)
			a.delta.Fused.FPR = a.fuFPR / float64(n)
			a.delta.Fused.FNR = a.fuFNR / float64(n)
		}
		c.Families = append(c.Families, a.delta)
	}
	return c, nil
}

// RenderModeComparison renders the per-family comparison table: packets
// lost, mean time-to-restore and the prediction error rates under both
// modes, plus how often fusion engaged (external pre-triggers applied
// and own inferences vetoed).
func RenderModeComparison(c *ModeComparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix %q seed %d: per-peer vs fused (%d scenarios)\n",
		c.Matrix, c.Seed, len(c.PerPeer.Scenarios))
	fmt.Fprintf(&b, "%-20s %4s  %19s  %23s  %17s  %15s  %9s\n",
		"family", "sess", "lost pp->fu", "restore pp->fu", "FPR pp->fu", "FNR pp->fu", "ext/veto")
	for _, f := range c.Families {
		mark := " "
		if f.MultiSession {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-19s%s %4d  %8d -> %8d  %10s -> %10s  %7.4f -> %7.4f  %6.3f -> %6.3f  %4d/%4d\n",
			f.Family, mark, f.Sessions,
			f.PerPeer.Lost, f.Fused.Lost,
			f.PerPeer.MeanRestore.Round(time.Millisecond), f.Fused.MeanRestore.Round(time.Millisecond),
			f.PerPeer.FPR, f.Fused.FPR,
			f.PerPeer.FNR, f.Fused.FNR,
			f.Fused.External, f.Fused.Vetoed)
	}
	fmt.Fprintf(&b, "total: swift lost %d (per-peer) vs %d (fused); * = multi-session family\n",
		c.PerPeer.SwiftLost, c.Fused.SwiftLost)
	return b.String()
}
