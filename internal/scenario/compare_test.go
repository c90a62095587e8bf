package scenario

import (
	"bytes"
	"strings"
	"testing"
)

func TestScenarioMatrixRunner(t *testing.T) {
	rep, err := RunMode("smoke", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) == 0 {
		t.Fatal("empty matrix report")
	}
	if rep.RemoteSwiftWins != rep.RemoteScenarios {
		t.Errorf("SWIFT strictly better on %d of %d remote scenarios",
			rep.RemoteSwiftWins, rep.RemoteScenarios)
	}
	out := RenderScenarioMatrix(rep)
	for _, r := range rep.Scenarios {
		if !strings.Contains(out, r.Name) {
			t.Errorf("rendering lacks scenario %q", r.Name)
		}
	}
	if _, err := RunMode("no-such-matrix", 1, false); err == nil {
		t.Error("unknown matrix did not error")
	}
}

// TestCompareScenarioModes pins the per-peer vs fused comparison: two
// runs on one seed give byte-identical JSON, and each mode's family
// rows account for every packet that mode's matrix report lost.
func TestCompareScenarioModes(t *testing.T) {
	c, err := CompareScenarioModes("smoke", 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := CompareScenarioModes("smoke", 1)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := c.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := again.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Error("two comparisons with the same seed produced different JSON")
	}

	if c.PerPeer.Mode != ModePerPeer || c.Fused.Mode != ModeFused {
		t.Fatalf("report modes = %q, %q", c.PerPeer.Mode, c.Fused.Mode)
	}
	if len(c.Families) == 0 {
		t.Fatal("no families")
	}
	var ppLost, fuLost int64
	scenarios := 0
	for _, f := range c.Families {
		ppLost += f.PerPeer.Lost
		fuLost += f.Fused.Lost
		scenarios += f.Scenarios
	}
	if ppLost != c.PerPeer.SwiftLost {
		t.Errorf("per-peer family lost sums to %d, report says %d", ppLost, c.PerPeer.SwiftLost)
	}
	if fuLost != c.Fused.SwiftLost {
		t.Errorf("fused family lost sums to %d, report says %d", fuLost, c.Fused.SwiftLost)
	}
	if scenarios != len(c.PerPeer.Scenarios) {
		t.Errorf("families cover %d scenarios, matrix has %d", scenarios, len(c.PerPeer.Scenarios))
	}
	out := RenderModeComparison(c)
	for _, f := range c.Families {
		if !strings.Contains(out, f.Family) {
			t.Errorf("rendering lacks family %q", f.Family)
		}
	}
}
