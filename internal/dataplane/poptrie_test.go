package dataplane

import (
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"swift/internal/encoding"
	"swift/internal/netaddr"
)

func TestPoptrieBasics(t *testing.T) {
	var pt Poptrie
	def := netaddr.MustParsePrefix("0.0.0.0/0")
	p8 := netaddr.MustParsePrefix("10.0.0.0/8")
	p16 := netaddr.MustParsePrefix("10.1.0.0/16")
	p24 := netaddr.MustParsePrefix("10.1.2.0/24")
	p32 := netaddr.MustParsePrefix("10.1.2.3/32")

	if _, ok := pt.Lookup(0x0a010203); ok {
		t.Fatal("empty poptrie matched")
	}
	for i, e := range []struct {
		p netaddr.Prefix
		t encoding.Tag
	}{{p8, 1}, {p16, 2}, {p24, 3}, {p32, 4}} {
		if !pt.Insert(e.p, e.t) {
			t.Fatalf("insert %d reported overwrite", i)
		}
	}
	for _, tc := range []struct {
		addr uint32
		tag  encoding.Tag
		ok   bool
	}{
		{0x0a010203, 4, true},  // exact /32
		{0x0a010204, 3, true},  // /24
		{0x0a010303, 2, true},  // /16 — node default, not root leaf
		{0x0a020304, 1, true},  // /8 root expansion
		{0x0b000001, 0, false}, // miss
	} {
		if got, ok := pt.Lookup(tc.addr); ok != tc.ok || got != tc.tag {
			t.Errorf("Lookup(%08x) = %v,%v want %v,%v", tc.addr, got, ok, tc.tag, tc.ok)
		}
	}
	// Default route expands over the whole root array.
	pt.Insert(def, 9)
	if got, ok := pt.Lookup(0xdeadbeef); !ok || got != 9 {
		t.Fatalf("default route: got %v,%v", got, ok)
	}
	// Withdrawing the chunk's /16 exposes the /8 inside the node default.
	pt.Delete(p16)
	if got, ok := pt.Lookup(0x0a010303); !ok || got != 1 {
		t.Fatalf("after /16 delete: got %v,%v want 1", got, ok)
	}
	// Collapsing the long tail returns the cover to the root slot.
	pt.Delete(p24)
	pt.Delete(p32)
	if got, ok := pt.Lookup(0x0a010203); !ok || got != 1 {
		t.Fatalf("after tail delete: got %v,%v want 1", got, ok)
	}
	pt.Delete(p8)
	if got, ok := pt.Lookup(0x0a010203); !ok || got != 9 {
		t.Fatalf("after /8 delete: got %v,%v want 9 (default)", got, ok)
	}
	pt.Delete(def)
	if _, ok := pt.Lookup(0x0a010203); ok {
		t.Fatal("emptied poptrie still matches")
	}
	if pt.Len() != 0 {
		t.Fatalf("Len = %d, want 0", pt.Len())
	}
}

// TestPoptrieReplaceLazyRebuild pins the Replace contract: the swap is
// visible on the next lookup (the rebuild is lazy but transparent), and
// incremental updates applied while the read path is stale land too.
func TestPoptrieReplaceLazyRebuild(t *testing.T) {
	var pt Poptrie
	pt.Insert(netaddr.MustParsePrefix("10.0.0.0/8"), 1)
	if err := pt.Replace([]TagEntry{
		{Prefix: netaddr.MustParsePrefix("10.1.0.0/16"), Tag: 5},
		{Prefix: netaddr.MustParsePrefix("10.1.2.0/24"), Tag: 6},
	}); err != nil {
		t.Fatal(err)
	}
	// Mutate before the first post-swap read: must not be lost.
	pt.Insert(netaddr.MustParsePrefix("10.1.2.3/32"), 7)
	pt.Delete(netaddr.MustParsePrefix("10.1.2.0/24"))
	if got, ok := pt.Lookup(0x0a010203); !ok || got != 7 {
		t.Fatalf("post-swap /32: got %v,%v want 7", got, ok)
	}
	if got, ok := pt.Lookup(0x0a010204); !ok || got != 5 {
		t.Fatalf("post-swap /16: got %v,%v want 5", got, ok)
	}
	if got, ok := pt.Lookup(0x0a000001); ok {
		t.Fatalf("pre-swap /8 leaked through Replace: got %v", got)
	}
}

// TestForwardBatchMatchesForward drives a randomized two-stage FIB and
// requires the batched pipeline to agree packet-for-packet with the
// scalar one, including drops at both stages.
func TestForwardBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := New(Config{})
	for i := 0; i < 4096; i++ {
		length := 8 + rng.Intn(25)
		addr := rng.Uint32() & netaddr.Mask(length)
		f.SetTag(netaddr.MakePrefix(addr, length), encoding.Tag(rng.Intn(64)))
	}
	// Rules that match only half the tag space, so stage-2 drops occur.
	for p := 0; p < 8; p++ {
		f.InstallRule(encoding.Rule{Value: encoding.Tag(p), Mask: 0x3f, NextHop: uint32(100 + p), Priority: p % 3})
	}
	addrs := make([]uint32, 1000)
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	nh := make([]uint32, len(addrs))
	ok := make([]bool, len(addrs))
	prio := make([]int, len(addrs))
	f.ForwardDetailBatch(addrs, nh, prio, ok)
	for i, addr := range addrs {
		wantNH, wantPrio, wantOK := f.ForwardDetail(addr)
		if nh[i] != wantNH || prio[i] != wantPrio || ok[i] != wantOK {
			t.Fatalf("ForwardDetailBatch[%d] addr %08x = %d,%d,%v want %d,%d,%v",
				i, addr, nh[i], prio[i], ok[i], wantNH, wantPrio, wantOK)
		}
	}
	f.ForwardBatch(addrs, nh, ok)
	for i, addr := range addrs {
		wantNH, wantOK := f.Forward(addr)
		if nh[i] != wantNH || ok[i] != wantOK {
			t.Fatalf("ForwardBatch[%d] addr %08x = %d,%v want %d,%v", i, addr, nh[i], ok[i], wantNH, wantOK)
		}
	}
}

// TestFIBDumpUnchangedByReadPath pins that the lookup index does not
// perturb the deterministic Dump contract: dumps reflect the sorted
// entries regardless of how the table was built or churned.
func TestFIBDumpUnchangedByReadPath(t *testing.T) {
	build := func(viaReplace bool) *FIB {
		f := New(Config{})
		m := map[netaddr.Prefix]encoding.Tag{}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 512; i++ {
			length := 8 + rng.Intn(25)
			addr := rng.Uint32() & netaddr.Mask(length)
			m[netaddr.MakePrefix(addr, length)] = encoding.Tag(rng.Intn(64))
		}
		if viaReplace {
			if err := f.ReplaceTags(sortedEntries(m)); err != nil {
				t.Fatal(err)
			}
		} else {
			for p, tag := range m {
				f.SetTag(p, tag)
			}
		}
		return f
	}
	a, b := build(true), build(false)
	// Force the lazy rebuild on one of them; dumps must still agree.
	a.TagOf(0)
	if a.Dump() != b.Dump() {
		t.Fatal("Dump differs between Replace-built and SetTag-built FIBs")
	}
}

// TestPoptrieIndexBytesPerPrefix pins the index footprint of a dense
// /24 table — 240 chunks of 256 /24s, every tag distinct, the shape of
// a full-table peer. Each /24 paints 16 leaf slots of its stride-6 node
// but is one leaf run, so the index stores one tag for it, not 16: the
// lazy build the first lookup triggers must allocate at most 100 bytes
// per prefix, root arrays included.
func TestPoptrieIndexBytesPerPrefix(t *testing.T) {
	const chunks, perChunk = 240, 256
	entries := make([]TagEntry, 0, chunks*perChunk)
	for c := 0; c < chunks; c++ {
		for j := 0; j < perChunk; j++ {
			p := netaddr.MakePrefix(uint32(10)<<24|uint32(c)<<16|uint32(j)<<8, 24)
			entries = append(entries, TagEntry{Prefix: p, Tag: encoding.Tag(len(entries) + 1)})
		}
	}
	var pt Poptrie
	if err := pt.Replace(entries); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tag, ok := pt.Lookup(0x0a000001)
	runtime.ReadMemStats(&after)
	if !ok || tag != 1 {
		t.Fatalf("Lookup(10.0.0.1) = %v,%v want 1,true", tag, ok)
	}
	perPrefix := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(entries))
	t.Logf("index: %.1f B per prefix", perPrefix)
	if perPrefix > 100 {
		t.Fatalf("index allocated %.1f B per prefix, want <= 100", perPrefix)
	}
	for i, e := range entries {
		if got, ok := pt.Lookup(e.Prefix.Addr() | 0xff); !ok || got != e.Tag {
			t.Fatalf("entry %d %s: Lookup = %v,%v want %v,true", i, e.Prefix, got, ok, e.Tag)
		}
	}
}

// nodeAt returns the stride-6 node holding addr's prefixes of length
// in (depth, depth+6], depth one of 16, 22, 28; nil when absent.
func nodeAt(pt *Poptrie, addr uint32, depth int) *popNode {
	n := pt.rootNode[addr>>16]
	key := addr << 16
	for d := 16; n != nil && d < depth; d += 6 {
		bit := uint64(1) << (key >> 26)
		if n.intBits&bit == 0 {
			return nil
		}
		n = n.children[bits.OnesCount64(n.intBits&(bit-1))]
		key <<= 6
	}
	return n
}

// checkRuns requires n's leaf runs to be minimal and addressable: every
// run starts on a painted slot, the first painted slot starts one, each
// run's tag differs from the run before it, and there is one stored tag
// per run.
func checkRuns(t *testing.T, n *popNode) {
	t.Helper()
	if n.runBits&^n.leafBits != 0 {
		t.Fatalf("run starts %064b outside painted slots %064b", n.runBits, n.leafBits)
	}
	if n.leafBits != 0 && bits.TrailingZeros64(n.runBits) != bits.TrailingZeros64(n.leafBits) {
		t.Fatalf("first painted slot %d does not start a run (%064b)", bits.TrailingZeros64(n.leafBits), n.runBits)
	}
	if got, want := len(n.leaves), bits.OnesCount64(n.runBits); got != want {
		t.Fatalf("%d stored leaves for %d runs", got, want)
	}
	for i := 1; i < len(n.leaves); i++ {
		if n.leaves[i] == n.leaves[i-1] {
			t.Fatalf("runs %d and %d share tag %v: not merged", i-1, i, n.leaves[i])
		}
	}
}

// TestPoptrieLeafRunsMergeAndSplit walks one stride-6 node through the
// run seams: two neighbouring /24s with the same tag merge into one
// run, a /23 cover beneath them leaves that run whole, deleting one /24
// exposes the cover's tag and splits the run, deleting the other
// leaves the cover's run, and retagging a /24 across an unpainted gap
// to the cover's tag merges the node into one run.
func TestPoptrieLeafRunsMergeAndSplit(t *testing.T) {
	a := netaddr.MustParsePrefix("10.1.2.0/24")
	b := netaddr.MustParsePrefix("10.1.3.0/24")
	cover := netaddr.MustParsePrefix("10.1.2.0/23")
	other := netaddr.MustParsePrefix("10.1.0.0/24")
	const inA, inB, inOther = 0x0a010280, 0x0a010380, 0x0a010080

	var pt Poptrie
	pt.Insert(other, 5)
	pt.Insert(a, 7)
	pt.Insert(b, 7)
	n := nodeAt(&pt, inA, 22)
	if n == nil || n != nodeAt(&pt, inB, 22) || n != nodeAt(&pt, inOther, 22) {
		t.Fatal("the three /24s do not share one depth-22 node")
	}
	step := func(name string, runs int, want map[uint32]encoding.Tag) {
		t.Helper()
		checkRuns(t, n)
		if got := bits.OnesCount64(n.runBits); got != runs {
			t.Fatalf("%s: %d runs (%064b), want %d", name, got, n.runBits, runs)
		}
		for addr, tag := range want {
			if got, ok := pt.Lookup(addr); !ok || got != tag {
				t.Fatalf("%s: Lookup(%08x) = %v,%v want %v,true", name, addr, got, ok, tag)
			}
		}
	}
	step("merged", 2, map[uint32]encoding.Tag{inOther: 5, inA: 7, inB: 7})
	pt.Insert(cover, 9)
	step("covered", 2, map[uint32]encoding.Tag{inOther: 5, inA: 7, inB: 7})
	pt.Delete(b)
	step("split", 3, map[uint32]encoding.Tag{inOther: 5, inA: 7, inB: 9})
	pt.Delete(a)
	step("cover only", 2, map[uint32]encoding.Tag{inOther: 5, inA: 9, inB: 9})
	pt.Insert(other, 9)
	step("one tag", 1, map[uint32]encoding.Tag{inOther: 9, inA: 9, inB: 9})

	// The lazy rebuild paints the same runs the incremental writes do.
	var rebuilt Poptrie
	if err := rebuilt.Replace(pt.entries); err != nil {
		t.Fatal(err)
	}
	rebuilt.Lookup(0)
	m := nodeAt(&rebuilt, inA, 22)
	checkRuns(t, m)
	if m.leafBits != n.leafBits || m.runBits != n.runBits || !slices.Equal(m.leaves, n.leaves) {
		t.Fatalf("rebuilt node %064b/%064b %v, incremental %064b/%064b %v",
			m.leafBits, m.runBits, m.leaves, n.leafBits, n.runBits, n.leaves)
	}
}

// TestPoptrieLeafRunsStayMinimal churns random prefixes with few
// distinct tags inside two chunks, so runs merge and split constantly,
// and after every write checks each node's runs against checkRuns.
func TestPoptrieLeafRunsStayMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var pt Poptrie
	var walk func(n *popNode)
	walk = func(n *popNode) {
		checkRuns(t, n)
		for _, c := range n.children {
			walk(c)
		}
	}
	for step := 0; step < 3000; step++ {
		length := 17 + rng.Intn(16)
		addr := uint32(10)<<24 | uint32(rng.Intn(2))<<16 | uint32(rng.Intn(4))<<8 | uint32(rng.Intn(256))
		p := netaddr.MakePrefix(addr, length)
		if rng.Intn(3) == 0 {
			pt.Delete(p)
		} else {
			pt.Insert(p, encoding.Tag(rng.Intn(3)))
		}
		for _, n := range pt.rootNode[0x0a00:0x0a02] {
			if n != nil {
				walk(n)
			}
		}
	}
}
