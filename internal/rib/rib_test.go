package rib

import (
	"fmt"
	"testing"
	"testing/quick"

	"swift/internal/netaddr"
	"swift/internal/topology"
)

func link(a, b uint32) topology.Link { return topology.MakeLink(a, b) }

func TestPathLinks(t *testing.T) {
	ls := PathLinks(nil, 1, []uint32{2, 5, 6, 8})
	want := []topology.Link{link(1, 2), link(2, 5), link(5, 6), link(6, 8)}
	if len(ls) != len(want) {
		t.Fatalf("links = %v", ls)
	}
	for i := range want {
		if ls[i] != want[i] {
			t.Errorf("link %d = %v, want %v", i, ls[i], want[i])
		}
	}
}

func TestPathLinksPrepending(t *testing.T) {
	ls := PathLinks(nil, 1, []uint32{2, 2, 2, 5})
	if len(ls) != 2 || ls[0] != link(1, 2) || ls[1] != link(2, 5) {
		t.Errorf("prepended path links = %v", ls)
	}
}

func TestAnnounceWithdraw(t *testing.T) {
	tb := New(1)
	p := netaddr.PrefixFor(8, 0)
	if old := tb.Announce(p, []uint32{2, 5, 6, 8}); old != nil {
		t.Errorf("old = %v", old)
	}
	if tb.Len() != 1 {
		t.Errorf("len = %d", tb.Len())
	}
	if tb.OnLink(link(5, 6)) != 1 || tb.OnLink(link(1, 2)) != 1 {
		t.Error("link index not populated")
	}
	// Replace with a path avoiding (5,6).
	old := tb.Announce(p, []uint32{3, 6, 8})
	if len(old) != 4 {
		t.Errorf("old = %v", old)
	}
	if tb.OnLink(link(5, 6)) != 0 {
		t.Error("stale link index entry after reannounce")
	}
	if tb.OnLink(link(3, 6)) != 1 || tb.OnLink(link(1, 3)) != 1 {
		t.Error("new links not indexed")
	}
	wd := tb.Withdraw(p)
	if len(wd) != 3 || tb.Len() != 0 {
		t.Errorf("withdraw = %v, len = %d", wd, tb.Len())
	}
	if tb.OnLink(link(3, 6)) != 0 {
		t.Error("index not cleaned by withdraw")
	}
	if tb.Withdraw(p) != nil {
		t.Error("double withdraw must return nil")
	}
}

func TestFig4Counters(t *testing.T) {
	// Rebuild the pre-failure state of Fig. 1 at AS 1's session with
	// AS 2 and check the P(l) values that feed Fig. 4.
	tb := New(1)
	n := 0
	add := func(origin uint32, count int, path ...uint32) {
		for i := 0; i < count; i++ {
			tb.Announce(netaddr.PrefixFor(origin, i), path)
			n++
		}
	}
	add(2, 1000, 2)
	add(5, 1000, 2, 5)
	add(6, 1000, 2, 5, 6)
	add(7, 10000, 2, 5, 6, 7)
	add(8, 10000, 2, 5, 6, 8)

	if tb.Len() != n {
		t.Fatalf("len = %d, want %d", tb.Len(), n)
	}
	for _, c := range []struct {
		l    topology.Link
		want int
	}{
		{link(1, 2), 23000},
		{link(2, 5), 22000},
		{link(5, 6), 21000},
		{link(6, 7), 10000},
		{link(6, 8), 10000},
	} {
		if got := tb.OnLink(c.l); got != c.want {
			t.Errorf("OnLink%v = %d, want %d", c.l, got, c.want)
		}
	}
	// Prefixes to reroute for an inferred failure of (5,6).
	got := tb.PrefixesOnAny([]topology.Link{link(5, 6)})
	if len(got) != 21000 {
		t.Errorf("PrefixesOnAny(5,6) = %d, want 21000", len(got))
	}
}

func TestPrefixesOnAnyUnion(t *testing.T) {
	tb := New(1)
	p1, p2, p3 := netaddr.PrefixFor(6, 0), netaddr.PrefixFor(7, 0), netaddr.PrefixFor(9, 0)
	tb.Announce(p1, []uint32{2, 5, 6})
	tb.Announce(p2, []uint32{2, 5, 6, 7})
	tb.Announce(p3, []uint32{3, 9})
	got := tb.PrefixesOnAny([]topology.Link{link(5, 6), link(6, 7)})
	if len(got) != 2 {
		t.Fatalf("union = %v", got)
	}
	// Sorted output.
	if got[0] > got[1] {
		t.Error("PrefixesOnAny must sort")
	}
}

func TestActiveLinks(t *testing.T) {
	tb := New(1)
	tb.Announce(netaddr.PrefixFor(6, 0), []uint32{2, 5, 6})
	links := tb.ActiveLinks()
	if len(links) != 3 {
		t.Errorf("active links = %v", links)
	}
	tb.Withdraw(netaddr.PrefixFor(6, 0))
	if len(tb.ActiveLinks()) != 0 {
		t.Error("links must disappear with their last prefix")
	}
}

func TestClone(t *testing.T) {
	tb := New(1)
	p := netaddr.PrefixFor(6, 0)
	tb.Announce(p, []uint32{2, 5, 6})
	cp := tb.Clone()
	tb.Withdraw(p)
	if cp.Len() != 1 || cp.OnLink(link(5, 6)) != 1 {
		t.Error("clone shares state with original")
	}
}

func TestForEach(t *testing.T) {
	tb := New(1)
	tb.Announce(netaddr.PrefixFor(6, 0), []uint32{2, 6})
	tb.Announce(netaddr.PrefixFor(7, 0), []uint32{2, 7})
	count := 0
	tb.ForEach(func(p netaddr.Prefix, path []uint32) { count++ })
	if count != 2 {
		t.Errorf("ForEach visited %d", count)
	}
}

// propertyPaths is the path alphabet of the table property tests: 24
// distinct paths sharing first hops and interior links, so groups are
// small, empty often and hand their arrays to one another.
func propertyPaths() [][]uint32 {
	paths := make([][]uint32, 24)
	for i := range paths {
		paths[i] = []uint32{uint32(2 + i%3), uint32(5 + i%4), 6, uint32(10 + i)}
	}
	return paths
}

func TestIndexConsistencyProperty(t *testing.T) {
	// Property: after any sequence of announce/withdraw operations, the
	// link index exactly matches the routes map, and the per-path
	// groups pass checkGroups — before and after Clone and Release.
	paths := propertyPaths()
	f := func(ops []uint16) bool {
		tb := New(1)
		for _, op := range ops {
			p := netaddr.PrefixFor(uint32(op%7+2), int(op/7)%5)
			if i := int(op) % (len(paths) + 4); i < len(paths) {
				tb.Announce(p, paths[i])
			} else {
				tb.Withdraw(p)
			}
		}
		if err := checkGroups(tb); err != nil {
			t.Log(err)
			return false
		}
		// Rebuild the index from scratch and compare counts.
		fresh := New(1)
		tb.ForEach(func(p netaddr.Prefix, path []uint32) { fresh.Announce(p, path) })
		if fresh.Len() != tb.Len() {
			return false
		}
		for _, l := range fresh.ActiveLinks() {
			if tb.OnLink(l) != fresh.OnLink(l) {
				return false
			}
		}
		for _, l := range tb.ActiveLinks() {
			if tb.OnLink(l) != fresh.OnLink(l) {
				return false
			}
		}
		cp := tb.Clone()
		tb.Release()
		for _, c := range []*Table{cp, tb} {
			if err := checkGroups(c); err != nil {
				t.Log(err)
				return false
			}
		}
		// The released table refills from its parked arrays.
		cp.ForEach(func(p netaddr.Prefix, path []uint32) { tb.Announce(p, path) })
		if err := checkGroups(tb); err != nil || tb.Signature() != cp.Signature() {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// checkGroups verifies the per-path group index against the routes
// map: ForEachPath yields each routed prefix exactly once, under the
// path the routes map names, at the position its routeRef records; no
// two groups share a backing array; the parked stack holds exactly the
// flagged ids, once each; and CountOnSet equals a brute-force count
// for every single active link and every adjacent pair of them.
func checkGroups(tb *Table) error {
	seen := make(map[netaddr.Prefix]bool, tb.Len())
	k := 0
	var err error
	tb.ForEachPath(func(path []uint32, prefixes []netaddr.Prefix) {
		id := tb.livePaths[k]
		if g := &tb.perPath[id]; int(g.pos) != k || g.ent.id != id {
			err = fmt.Errorf("live path %d at position %d: pos %d, entry id %d", id, k, g.pos, g.ent.id)
		}
		k++
		if len(prefixes) == 0 {
			err = fmt.Errorf("live path %d has an empty group", id)
		}
		for i, p := range prefixes {
			ref, ok := tb.routes.Get(p)
			switch {
			case seen[p]:
				err = fmt.Errorf("prefix %v yielded twice", p)
			case !ok:
				err = fmt.Errorf("prefix %v in group %d but not routed", p, id)
			case ref.pid != id || int(ref.idx) != i:
				err = fmt.Errorf("prefix %v at group %d[%d], routes map says %d[%d]", p, id, i, ref.pid, ref.idx)
			case !pathsEqual(tb.Path(p), path):
				err = fmt.Errorf("prefix %v yielded under %v, routed over %v", p, path, tb.Path(p))
			}
			seen[p] = true
		}
	})
	if err != nil {
		return err
	}
	if k != len(tb.livePaths) || len(seen) != tb.Len() {
		return fmt.Errorf("ForEachPath yielded %d groups and %d prefixes; table has %d live paths, %d routes",
			k, len(seen), len(tb.livePaths), tb.Len())
	}

	owner := make(map[*netaddr.Prefix]int)
	flagged := 0
	for id := range tb.perPath {
		g := &tb.perPath[id]
		if g.parked {
			flagged++
		}
		if cap(g.prefixes) == 0 {
			continue
		}
		base := &g.prefixes[:1][0]
		if other, dup := owner[base]; dup {
			return fmt.Errorf("groups %d and %d share a backing array", other, id)
		}
		owner[base] = id
	}
	onStack := make(map[PathID]bool, len(tb.parked))
	for _, id := range tb.parked {
		if onStack[id] || !tb.perPath[id].parked {
			return fmt.Errorf("parked stack entry %d duplicated or unflagged", id)
		}
		onStack[id] = true
	}
	if flagged != len(onStack) {
		return fmt.Errorf("%d groups flagged parked, %d on the stack", flagged, len(onStack))
	}

	active := tb.ActiveLinks()
	var set LinkSet
	for i, l := range active {
		sets := [][]topology.Link{{l}}
		if i+1 < len(active) {
			sets = append(sets, []topology.Link{l, active[i+1]})
		}
		for _, links := range sets {
			want := 0
			tb.ForEach(func(p netaddr.Prefix, path []uint32) {
				for _, pl := range PathLinks(nil, tb.LocalAS(), path) {
					if pl == links[0] || pl == links[len(links)-1] {
						want++
						return
					}
				}
			})
			tb.FillLinkSet(&set, links)
			if got := tb.CountOnSet(&set); got != want {
				return fmt.Errorf("CountOnSet(%v) = %d, brute force %d", links, got, want)
			}
		}
	}
	return nil
}

// TestBurstMoveReusesGroupArrays: a burst that moves 64 groups of 64
// prefixes onto 64 paths this table has never routed builds the new
// groups in the arrays the old ones emptied. A second table pre-interns
// every path set, so the shared pool allocates nothing either; what is
// left is the table's per-id and per-link index growth.
func TestBurstMoveReusesGroupArrays(t *testing.T) {
	const groups, per = 64, 64
	pool := NewPool()
	pathOf := func(set, i int) []uint32 {
		return []uint32{2, 5, uint32(100 + i), uint32(10000 + 100*set + i)}
	}
	other := NewWithPool(1, pool)
	for set := 0; set < 3; set++ {
		for i := 0; i < groups; i++ {
			other.Announce(netaddr.PrefixFor(uint32(200+set), i), pathOf(set, i))
		}
	}
	tb := NewWithPool(1, pool)
	for i := 0; i < groups; i++ {
		for j := 0; j < per; j++ {
			tb.Announce(netaddr.PrefixFor(uint32(100+i), j), pathOf(0, i))
		}
	}
	set := 0
	move := func() {
		set++
		for i := 0; i < groups; i++ {
			for j := 0; j < per; j++ {
				tb.Announce(netaddr.PrefixFor(uint32(100+i), j), pathOf(set, i))
			}
		}
	}
	// AllocsPerRun warms up with one move (set 0 → 1) and measures the
	// next (1 → 2): both land on ids this table has never routed.
	allocs := testing.AllocsPerRun(1, move)
	if allocs > 8 {
		t.Errorf("moving %d groups of %d prefixes onto fresh paths allocates %v objects, want <= 8", groups, per, allocs)
	}
	if err := checkGroups(tb); err != nil {
		t.Fatal(err)
	}
}
