package encoding

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"swift/internal/netaddr"
	"swift/internal/reroute"
	"swift/internal/rib"
	"swift/internal/topology"
)

// TestReroutableMatchesRules verifies the core encoding invariant: a
// prefix reported Reroutable for a link set is matched by at least one
// of RerouteRules' rules (and diverted to a non-primary next-hop),
// while prefixes with no relation to the links match none. Checked over
// randomized topologies.
func TestReroutableMatchesRules(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		// Random 3-4 hop paths over a small AS pool, heavy enough to
		// clear a low encoding threshold.
		table := rib.New(1)
		alt := rib.New(1)
		pool := []uint32{10, 11, 12, 20, 21, 30, 31}
		type group struct {
			path   []uint32
			origin uint32
		}
		var groups []group
		for g := 0; g < 5; g++ {
			hops := 2 + rng.Intn(3)
			path := []uint32{pool[rng.Intn(2)]} // first hop 10 or 11
			for len(path) < hops {
				next := pool[rng.Intn(len(pool))]
				if next != path[len(path)-1] {
					path = append(path, next)
				}
			}
			origin := uint32(100 + g)
			path = append(path, origin)
			groups = append(groups, group{path: path, origin: origin})
			for i := 0; i < 300; i++ {
				p := netaddr.PrefixFor(origin, i)
				table.Announce(p, path)
				alt.Announce(p, []uint32{99, origin}) // endpoint-free backup
			}
		}
		plan := reroute.Compute(1, table, map[uint32]*rib.Table{99: alt}, nil, 5)
		cfg := Default()
		cfg.MinPrefixes = 100
		s, err := Build(cfg, table, plan)
		if err != nil {
			t.Fatal(err)
		}

		// Pick a random link from a random group's path as "failed".
		g := groups[rng.Intn(len(groups))]
		hop := rng.Intn(len(g.path))
		var failed topology.Link
		if hop == 0 {
			failed = topology.MakeLink(1, g.path[0])
		} else {
			failed = topology.MakeLink(g.path[hop-1], g.path[hop])
		}
		links := []topology.Link{failed}
		rules := s.RerouteRules(links)

		for _, grp := range groups {
			p := netaddr.PrefixFor(grp.origin, 0)
			tag, ok := s.TagFor(p)
			if !ok {
				t.Fatalf("trial %d: no tag for %v", trial, p)
			}
			matched := false
			var matchedNH uint32
			for _, r := range rules {
				if r.Matches(tag) {
					matched = true
					matchedNH = r.NextHop
					break
				}
			}
			if s.Reroutable(p, links, table) {
				if !matched {
					t.Fatalf("trial %d: %v reroutable for %v but no rule matches tag %b",
						trial, p, failed, tag)
				}
				if matchedNH == grp.path[0] {
					t.Fatalf("trial %d: reroute rule sends %v back to its primary %d",
						trial, p, matchedNH)
				}
			}
			// A prefix whose path never crosses the link must never be
			// caught by the rules (tags are exact per position).
			crosses := false
			prev := uint32(1)
			for _, as := range grp.path {
				if topology.MakeLink(prev, as) == failed {
					crosses = true
				}
				prev = as
			}
			if !crosses && matched {
				t.Fatalf("trial %d: %v (path %v) caught by rules for unrelated %v",
					trial, p, grp.path, failed)
			}
		}
	}
}

// TestTagStability verifies that rebuilding a scheme over the same RIB
// yields identical tags (determinism the FIB provisioning relies on).
func TestTagStability(t *testing.T) {
	table := rib.New(1)
	for g := uint32(0); g < 8; g++ {
		for i := 0; i < 300; i++ {
			table.Announce(netaddr.PrefixFor(100+g, i), []uint32{2, 50 + g, 100 + g})
		}
	}
	cfg := Default()
	cfg.MinPrefixes = 100
	a, err := Build(cfg, table, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(cfg, table, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ta := range a.Tags() {
		if tb, ok := b.TagFor(ta.Prefix); !ok || tb != ta.Tag {
			t.Fatalf("tag for %v differs across rebuilds: %b vs %b", ta.Prefix, ta.Tag, tb)
		}
	}
}

// TestTagsSortedCanonical pins the sorted-slice form of a stage-1
// assignment over randomized RIBs (prefixes announced in shuffled
// order, so the RIB's per-path grouping never coincides with prefix
// order): Tags() is strictly ascending and covers the table, TagFor
// agrees with a reference map built from it and misses what is absent,
// and Export → RestoreScheme → Export reproduces the image exactly,
// with unsorted, duplicate or malformed tags refused.
func TestTagsSortedCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 12; trial++ {
		table, alt := rib.New(1), rib.New(1)
		var all []netaddr.Prefix
		paths := map[uint32][]uint32{}
		for g := uint32(0); g < 6; g++ {
			origin := 100 + g
			paths[origin] = []uint32{2 + g%2, 50 + uint32(rng.Intn(3)), origin}
			for i, n := 0, 50+rng.Intn(250); i < n; i++ {
				all = append(all, netaddr.PrefixFor(origin, i))
			}
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		for _, p := range all {
			origin, _, _ := netaddr.PrefixOrigin(p)
			table.Announce(p, paths[origin])
			alt.Announce(p, []uint32{99, origin})
		}
		plan := reroute.Compute(1, table, map[uint32]*rib.Table{99: alt}, nil, 5)
		cfg := Default()
		cfg.MinPrefixes = 40
		s, err := Build(cfg, table, plan)
		if err != nil {
			t.Fatal(err)
		}

		tags := s.Tags()
		if len(tags) != table.Len() {
			t.Fatalf("trial %d: %d tags for %d routes", trial, len(tags), table.Len())
		}
		ref := make(map[netaddr.Prefix]Tag, len(tags))
		for i, ta := range tags {
			if i > 0 && ta.Prefix <= tags[i-1].Prefix {
				t.Fatalf("trial %d: Tags() not strictly ascending at %d: %v after %v", trial, i, ta.Prefix, tags[i-1].Prefix)
			}
			ref[ta.Prefix] = ta.Tag
		}
		for _, p := range all {
			if got, ok := s.TagFor(p); !ok || got != ref[p] {
				t.Fatalf("trial %d: TagFor(%v) = %b,%v want %b", trial, p, got, ok, ref[p])
			}
		}
		for i := 0; i < 200; i++ {
			p := netaddr.PrefixFor(uint32(90+rng.Intn(30)), rng.Intn(400))
			_, want := ref[p]
			if _, ok := s.TagFor(p); ok != want {
				t.Fatalf("trial %d: TagFor(%v) present=%v, want %v", trial, p, ok, want)
			}
		}

		img := s.Export()
		restored, err := RestoreScheme(img)
		if err != nil {
			t.Fatalf("trial %d: RestoreScheme: %v", trial, err)
		}
		if again := restored.Export(); !reflect.DeepEqual(img, again) {
			t.Fatalf("trial %d: Export -> RestoreScheme -> Export changed the image", trial)
		}
		if got, ok := restored.TagFor(all[0]); !ok || got != ref[all[0]] {
			t.Fatalf("trial %d: restored TagFor(%v) = %b,%v want %b", trial, all[0], got, ok, ref[all[0]])
		}
		for _, breakAt := range [][2]int{{0, 1}, {len(tags) - 1, len(tags) - 2}} {
			bad := img
			bad.Tags = append([]TagAssignment(nil), img.Tags...)
			bad.Tags[breakAt[0]] = bad.Tags[breakAt[1]]
			if _, err := RestoreScheme(bad); err == nil {
				t.Fatalf("trial %d: RestoreScheme accepted non-ascending tags", trial)
			}
		}
		// Malformed prefixes — length 33, length 40, host bits — that
		// still sort before every table prefix (all above 5.160.0.0).
		for _, raw := range []netaddr.Prefix{0x00010000<<8 | 33, 0x00100000<<8 | 40, 0x00010203<<8 | 8} {
			bad := img
			bad.Tags = append([]TagAssignment{{Prefix: raw, Tag: 1}}, img.Tags...)
			if _, err := RestoreScheme(bad); err == nil {
				t.Fatalf("trial %d: RestoreScheme accepted malformed tag %#x", trial, uint64(raw))
			}
		}
	}
}

// TestSortTagsMatchesComparisonSort pins the radix sort against the
// standard library over key widths that exercise every pass parity
// (one varying digit needs the copy-back, two do not, ...) up to full
// 64-bit keys no well-formed prefix produces. Tags record the input
// position, so a stable-order or payload mix-up shows.
func TestSortTagsMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, width := range []uint{1, 11, 12, 22, 33, 40, 44, 55, 64} {
		for _, n := range []int{0, 1, 2, 3, 100, 5000} {
			ts := make([]TagAssignment, n)
			for i := range ts {
				ts[i] = TagAssignment{Prefix: netaddr.Prefix(rng.Uint64() >> (64 - width)), Tag: Tag(i)}
			}
			want := slices.Clone(ts)
			slices.SortStableFunc(want, func(a, b TagAssignment) int {
				if a.Prefix < b.Prefix {
					return -1
				} else if a.Prefix > b.Prefix {
					return 1
				}
				return 0
			})
			sortTags(ts)
			if !slices.Equal(ts, want) {
				t.Fatalf("width %d n %d: sortTags differs from the stable comparison sort", width, n)
			}
		}
	}
}
