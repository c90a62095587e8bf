package encoding

import (
	"testing"

	"swift/internal/netaddr"
	"swift/internal/reroute"
	"swift/internal/rib"
	"swift/internal/topology"
)

func link(a, b uint32) topology.Link { return topology.MakeLink(a, b) }

// fig1State builds AS 1's RIB and reroute plan at a scale where every
// Fig. 1 link clears the MinPrefixes threshold.
func fig1State(t *testing.T, cfg Config, n int) (*rib.Table, *reroute.Plan, *Scheme) {
	t.Helper()
	primary := rib.New(1)
	alt3 := rib.New(1)
	alt4 := rib.New(1)
	for i := 0; i < n; i++ {
		for _, origin := range []uint32{6, 7, 8} {
			p := netaddr.PrefixFor(origin, i)
			switch origin {
			case 6:
				primary.Announce(p, []uint32{2, 5, 6})
				alt3.Announce(p, []uint32{3, 6})
				alt4.Announce(p, []uint32{4, 5, 6})
			case 7:
				primary.Announce(p, []uint32{2, 5, 6, 7})
				alt3.Announce(p, []uint32{3, 6, 7})
				alt4.Announce(p, []uint32{4, 5, 6, 7})
			case 8:
				primary.Announce(p, []uint32{2, 5, 6, 8})
				alt3.Announce(p, []uint32{3, 6, 8})
				alt4.Announce(p, []uint32{4, 5, 6, 8})
			}
		}
	}
	plan := reroute.Compute(1, primary, map[uint32]*rib.Table{3: alt3, 4: alt4}, nil, 5)
	s, err := Build(cfg, primary, plan)
	if err != nil {
		t.Fatal(err)
	}
	return primary, plan, s
}

func TestBuildValidation(t *testing.T) {
	table := rib.New(1)
	if _, err := Build(Config{TagBits: 0}, table, nil); err == nil {
		t.Error("zero tag width must fail")
	}
	if _, err := Build(Config{TagBits: 48, PathBits: 40, MaxDepth: 5, NHBits: 6}, table, nil); err == nil {
		t.Error("next-hop overflow must fail")
	}
	if _, err := Build(Config{TagBits: 48, PathBits: 18, MaxDepth: 1, NHBits: 6}, table, nil); err == nil {
		t.Error("MaxDepth 1 must fail")
	}
}

// TestBuildAllocsFlatInLinks: the per-link load counters live in one
// flat slice, so Build's allocation count grows with the number of
// distinct links only through slice and map doubling, not once per
// link.
func TestBuildAllocsFlatInLinks(t *testing.T) {
	allocs := func(links int) float64 {
		table := rib.New(1)
		for i := 0; i < links; i++ {
			table.Announce(netaddr.PrefixFor(uint32(100+i), 0), []uint32{2, uint32(1000 + i)})
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Build(Default(), table, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(1000)
	if large-small >= 32 {
		t.Errorf("Build allocates %v objects over 100 depth-2 links and %v over 1,000; want a difference < 32", small, large)
	}
}

func TestTagsDistinguishPaths(t *testing.T) {
	cfg := Default()
	cfg.MinPrefixes = 100
	_, _, s := fig1State(t, cfg, 2000)

	t6, _ := s.TagFor(netaddr.PrefixFor(6, 0))
	t7, _ := s.TagFor(netaddr.PrefixFor(7, 0))
	t8, _ := s.TagFor(netaddr.PrefixFor(8, 0))
	if t7 == t8 {
		t.Error("paths through (6,7) and (6,8) must get distinct tags")
	}
	if t6 == t7 {
		t.Error("3-hop and 4-hop paths must differ")
	}
	// Same path, same tag.
	t7b, _ := s.TagFor(netaddr.PrefixFor(7, 1))
	if t7 != t7b {
		t.Error("identical paths must share a tag")
	}
}

func TestRerouteRuleMatchesAffectedOnly(t *testing.T) {
	cfg := Default()
	cfg.MinPrefixes = 100
	_, _, s := fig1State(t, cfg, 2000)

	rules := s.RerouteRules([]topology.Link{link(5, 6)})
	if len(rules) == 0 {
		t.Fatal("no rules for encoded link (5,6)")
	}
	// Every prefix of origins 6, 7, 8 must match some rule (they all
	// cross (5,6)); and the matched backup must be AS 3 for depth-2
	// failures, per Fig. 1.
	match := func(p netaddr.Prefix) (uint32, bool) {
		tag, ok := s.TagFor(p)
		if !ok {
			return 0, false
		}
		for _, r := range rules {
			if r.Matches(tag) {
				return r.NextHop, true
			}
		}
		return 0, false
	}
	for _, origin := range []uint32{6, 7, 8} {
		nh, ok := match(netaddr.PrefixFor(origin, 0))
		if !ok {
			t.Errorf("origin %d: no reroute rule matched", origin)
			continue
		}
		if nh != 3 {
			t.Errorf("origin %d rerouted to %d, want 3", origin, nh)
		}
	}
}

func TestReroutableCoverage(t *testing.T) {
	cfg := Default()
	cfg.MinPrefixes = 100
	table, _, s := fig1State(t, cfg, 2000)
	links := []topology.Link{link(5, 6)}
	n := 0
	for _, origin := range []uint32{6, 7, 8} {
		for i := 0; i < 2000; i++ {
			if s.Reroutable(netaddr.PrefixFor(origin, i), links, table) {
				n++
			}
		}
	}
	if n != 6000 {
		t.Errorf("reroutable = %d / 6000", n)
	}
	// A link nobody crosses yields nothing.
	for _, origin := range []uint32{6, 7, 8} {
		if s.Reroutable(netaddr.PrefixFor(origin, 0), []topology.Link{link(40, 41)}, table) {
			t.Error("unrelated link must not match")
		}
	}
}

func TestPrimaryRule(t *testing.T) {
	cfg := Default()
	cfg.MinPrefixes = 100
	_, _, s := fig1State(t, cfg, 2000)
	r, ok := s.PrimaryRule(2)
	if !ok {
		t.Fatal("primary next-hop 2 must be in the dictionary")
	}
	tag, _ := s.TagFor(netaddr.PrefixFor(7, 0))
	if !r.Matches(tag) {
		t.Error("primary rule must match prefixes routed via 2")
	}
	if _, ok := s.PrimaryRule(77); ok {
		t.Error("unknown next-hop must not produce a rule")
	}
}

func TestMinPrefixesThreshold(t *testing.T) {
	// With the paper's 1,500 threshold and only 1,000 prefixes per
	// link, nothing is encoded.
	cfg := Default()
	_, _, s := fig1State(t, cfg, 1000)
	st := s.Stats()
	// Origin 6's 1000 + origin 7's 1000 + origin 8's 1000 cross (5,6)
	// at depth 3... all 3000 >= 1500, so (5,6) at depth 3 qualifies,
	// while (6,7)/(6,8) at depth 4 (1000 each) do not.
	if s.LinkEncoded(link(6, 7), 4) || s.LinkEncoded(link(6, 8), 4) {
		t.Error("links under the threshold must not be encoded")
	}
	if !s.LinkEncoded(link(5, 6), 3) {
		t.Error("the 3000-prefix link must be encoded")
	}
	if st.EncodedLinks == 0 {
		t.Error("expected at least one encoded link")
	}
}

func TestBitBudgetRespected(t *testing.T) {
	// Many distinct links at one depth must stop at the PathBits budget.
	table := rib.New(1)
	idx := 0
	for as := uint32(100); as < 400; as++ {
		for i := 0; i < 20; i++ {
			table.Announce(netaddr.PrefixFor(as%64+200, idx%1000), []uint32{2, as, as + 1000})
			idx++
		}
	}
	cfg := Default()
	cfg.MinPrefixes = 1
	s, err := Build(cfg, table, nil)
	if err != nil {
		t.Fatal(err)
	}
	if used := s.PathBitsUsed(); used > cfg.PathBits {
		t.Errorf("path bits used = %d > budget %d", used, cfg.PathBits)
	}
}

func TestRuleCountPerLink(t *testing.T) {
	// §6.5: one rule per (link, backup next-hop). With 2 alternates in
	// the dictionary plus the primary, rules for one link stay small.
	cfg := Default()
	cfg.MinPrefixes = 100
	_, _, s := fig1State(t, cfg, 2000)
	rules := s.RerouteRules([]topology.Link{link(5, 6)})
	// (5,6) appears at depths 2 (origin 6: 2-5-6) wait — depth 2 is
	// link index 2 on (1,2),(2,5),(5,6): depth 3. One encoded depth ×
	// ≤3 dictionary next-hops.
	if len(rules) > 6 {
		t.Errorf("rule count = %d, want few (one per backup NH per depth)", len(rules))
	}
}

func TestGroupPacking(t *testing.T) {
	g := group{shift: 10, width: 3}
	for v := uint64(0); v < 8; v++ {
		tag := g.place(v)
		if got := g.extract(tag); got != v {
			t.Errorf("extract(place(%d)) = %d", v, got)
		}
	}
	if g.mask() != Tag(0x7<<10) {
		t.Errorf("mask = %x", g.mask())
	}
	zero := group{}
	if zero.extract(Tag(0xffff)) != 0 {
		t.Error("zero-width group must extract 0")
	}
}

func TestWidthFor(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {63, 6},
	} {
		if got := widthFor(c.n); got != c.want {
			t.Errorf("widthFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestStats(t *testing.T) {
	cfg := Default()
	cfg.MinPrefixes = 100
	_, _, s := fig1State(t, cfg, 2000)
	st := s.Stats()
	if st.TaggedPrefixes != 6000 {
		t.Errorf("tagged = %d", st.TaggedPrefixes)
	}
	if st.NextHops < 2 {
		t.Errorf("next hops = %d", st.NextHops)
	}
	if st.PathBitsUsed <= 0 || st.PathBitsUsed > cfg.PathBits {
		t.Errorf("path bits = %d", st.PathBitsUsed)
	}
}
