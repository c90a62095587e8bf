package dataplane

import (
	"math/rand"
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
