package dataplane

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"swift/internal/encoding"
	"swift/internal/netaddr"
)

func TestStage1LPM(t *testing.T) {
	f := New(Config{})
	f.SetTag(netaddr.MustParsePrefix("10.0.0.0/8"), 1)
	f.SetTag(netaddr.MustParsePrefix("10.1.0.0/16"), 2)
	f.SetTag(netaddr.MustParsePrefix("10.1.2.0/24"), 3)

	for _, c := range []struct {
		addr uint32
		want encoding.Tag
	}{
		{0x0a010203, 3}, // 10.1.2.3 -> /24
		{0x0a010303, 2}, // 10.1.3.3 -> /16
		{0x0a020303, 1}, // 10.2.3.3 -> /8
	} {
		got, ok := f.TagOf(c.addr)
		if !ok || got != c.want {
			t.Errorf("TagOf(%08x) = %d, %v; want %d", c.addr, got, ok, c.want)
		}
	}
	if _, ok := f.TagOf(0x0b000000); ok {
		t.Error("11.0.0.0 must miss")
	}
}

func TestRemoveTag(t *testing.T) {
	f := New(Config{})
	p := netaddr.MustParsePrefix("10.0.0.0/8")
	f.SetTag(p, 1)
	f.RemoveTag(p)
	if _, ok := f.TagOf(0x0a000001); ok {
		t.Error("removed tag still matches")
	}
	f.RemoveTag(p) // idempotent
}

func TestPriorityMatching(t *testing.T) {
	f := New(Config{})
	p := netaddr.MustParsePrefix("10.0.0.0/8")
	f.SetTag(p, 0b1010)
	f.InstallRule(encoding.Rule{Value: 0b1000, Mask: 0b1000, NextHop: 2, Priority: 0})
	nh, ok := f.Forward(0x0a000001)
	if !ok || nh != 2 {
		t.Fatalf("Forward = %d, %v", nh, ok)
	}
	// A higher-priority reroute rule takes over.
	f.InstallRule(encoding.Rule{Value: 0b0010, Mask: 0b0010, NextHop: 3, Priority: 10})
	nh, ok = f.Forward(0x0a000001)
	if !ok || nh != 3 {
		t.Fatalf("after reroute Forward = %d, %v", nh, ok)
	}
	// Fallback: removing the reroute restores the primary.
	if removed := f.RemoveRulesAt(10); removed != 1 {
		t.Errorf("removed = %d", removed)
	}
	nh, _ = f.Forward(0x0a000001)
	if nh != 2 {
		t.Errorf("after fallback Forward = %d", nh)
	}
}

func TestForwardDropsUnmatched(t *testing.T) {
	f := New(Config{})
	f.SetTag(netaddr.MustParsePrefix("10.0.0.0/8"), 0b0001)
	f.InstallRule(encoding.Rule{Value: 0b1000, Mask: 0b1000, NextHop: 2})
	if _, ok := f.Forward(0x0a000001); ok {
		t.Error("packet with non-matching tag must drop")
	}
	if _, ok := f.Forward(0x0b000001); ok {
		t.Error("packet without tag must drop")
	}
}

func TestUpdateAccounting(t *testing.T) {
	cost := 200 * time.Microsecond
	f := New(Config{RuleUpdateCost: cost})
	for i := 0; i < 100; i++ {
		f.SetTag(netaddr.PrefixFor(5, i), encoding.Tag(i))
	}
	f.InstallRules(make([]encoding.Rule, 10))
	if f.Writes() != 110 {
		t.Errorf("writes = %d, want 110", f.Writes())
	}
	if f.Elapsed() != 110*cost {
		t.Errorf("elapsed = %v, want %v", f.Elapsed(), 110*cost)
	}
	f.ResetAccounting()
	if f.Writes() != 0 || f.Elapsed() != 0 {
		t.Error("accounting not reset")
	}
}

func TestDefaultCostWithinPaperRange(t *testing.T) {
	if DefaultRuleUpdate < MinRuleUpdate || DefaultRuleUpdate > MaxRuleUpdate {
		t.Error("default per-rule cost must sit in the 128-282us range")
	}
	f := New(Config{})
	f.SetTag(netaddr.PrefixFor(5, 0), 0)
	if f.Elapsed() < MinRuleUpdate || f.Elapsed() > MaxRuleUpdate {
		t.Errorf("one write cost %v outside the paper's range", f.Elapsed())
	}
}

func TestRerouteLatencyIndependentOfPrefixCount(t *testing.T) {
	// The point of SWIFT's encoding (§3.2): rerouting N prefixes costs
	// a handful of rule writes, not N. Provision 50k prefixes, then
	// measure only the reroute.
	f := New(Config{})
	for i := 0; i < 50000; i++ {
		f.SetTag(netaddr.PrefixFor(5, i), 0b0100)
	}
	f.InstallRule(encoding.Rule{Value: 0, Mask: 0, NextHop: 2, Priority: 0})
	f.ResetAccounting()
	f.InstallRules([]encoding.Rule{
		{Value: 0b0100, Mask: 0b0100, NextHop: 3, Priority: 10},
	})
	if f.Writes() != 1 {
		t.Fatalf("reroute writes = %d, want 1", f.Writes())
	}
	if f.Elapsed() > time.Millisecond {
		t.Errorf("reroute cost = %v, want sub-millisecond", f.Elapsed())
	}
	// And it actually moved all the traffic.
	nh, ok := f.Forward(netaddr.PrefixFor(5, 12345).Addr())
	if !ok || nh != 3 {
		t.Errorf("rerouted Forward = %d, %v", nh, ok)
	}
}

func TestNumRules(t *testing.T) {
	f := New(Config{})
	f.InstallRule(encoding.Rule{Priority: 1})
	f.InstallRule(encoding.Rule{Priority: 2})
	if f.NumRules() != 2 {
		t.Errorf("rules = %d", f.NumRules())
	}
}

// TestInstallOrderMatchesStableSort pins the stage-2 match order —
// higher priority first, earlier installation first within a priority —
// against the append-then-sort.SliceStable install it replaced, over
// random interleavings of single installs, batches and fallback
// removals at interleaved priorities. NextHop numbers the installs, so
// equal-priority rules are distinguishable.
func TestInstallOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prios := []int{0, 9, 10, 3}
	for trial := 0; trial < 50; trial++ {
		f := New(Config{})
		var want []encoding.Rule
		resort := func() {
			sort.SliceStable(want, func(i, j int) bool { return want[i].Priority > want[j].Priority })
		}
		seq := uint32(0)
		next := func() encoding.Rule {
			seq++
			return encoding.Rule{NextHop: seq, Priority: prios[rng.Intn(len(prios))]}
		}
		for step := 0; step < 40; step++ {
			switch rng.Intn(4) {
			case 0, 1:
				r := next()
				f.InstallRule(r)
				want = append(want, r)
				resort()
			case 2:
				batch := make([]encoding.Rule, rng.Intn(6))
				for i := range batch {
					batch[i] = next()
				}
				f.InstallRules(batch)
				want = append(want, batch...)
				resort()
			case 3:
				prio := prios[rng.Intn(len(prios))]
				f.RemoveRulesAt(prio)
				want = slices.DeleteFunc(want, func(r encoding.Rule) bool { return r.Priority == prio })
			}
			if !slices.Equal(f.stage2, want) {
				t.Fatalf("trial %d step %d: stage-2 order\n got %v\nwant %v", trial, step, f.stage2, want)
			}
		}
	}
}

// TestReplaceTagsSteadyStateAllocs pins the buffer reuse: once a FIB
// has been provisioned, swapping in another assignment of the same size
// copies into the previous table's entry buffer.
func TestReplaceTagsSteadyStateAllocs(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(1))
	set := map[netaddr.Prefix]encoding.Tag{}
	for len(set) < n {
		length := 16 + rng.Intn(9)
		set[netaddr.MakePrefix(rng.Uint32()&netaddr.Mask(length), length)] = encoding.Tag(rng.Intn(1 << 20))
	}
	tags := sortedEntries(set)
	f := New(Config{})
	if err := f.ReplaceTags(tags); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := f.ReplaceTags(tags); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("steady-state ReplaceTags of %d entries: %.0f allocs, want <= 4", n, allocs)
	}
	if f.NumTags() != n {
		t.Fatalf("NumTags = %d, want %d", f.NumTags(), n)
	}
}
