package dataplane

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"swift/internal/encoding"
	"swift/internal/netaddr"
)

// mapLPM is the brute-force longest-prefix-match reference: the
// map-plus-length-scan structure the FIB's first stage 1 was. It is
// the model the property and fuzz tests pin Poptrie against.
type mapLPM struct {
	m       map[netaddr.Prefix]encoding.Tag
	lengths [33]int
}

func newMapLPM() *mapLPM {
	return &mapLPM{m: make(map[netaddr.Prefix]encoding.Tag)}
}

func (r *mapLPM) Insert(p netaddr.Prefix, t encoding.Tag) bool {
	_, exists := r.m[p]
	if !exists {
		r.lengths[p.Len()]++
	}
	r.m[p] = t
	return !exists
}

func (r *mapLPM) Delete(p netaddr.Prefix) bool {
	if _, exists := r.m[p]; !exists {
		return false
	}
	delete(r.m, p)
	r.lengths[p.Len()]--
	return true
}

func (r *mapLPM) Lookup(addr uint32) (encoding.Tag, bool) {
	for l := 32; l >= 0; l-- {
		if r.lengths[l] == 0 {
			continue
		}
		if t, ok := r.m[netaddr.MakePrefix(addr, l)]; ok {
			return t, true
		}
	}
	return 0, false
}

// sortedEntries returns m as the strictly ascending slice Replace and
// ReplaceTags take.
func sortedEntries(m map[netaddr.Prefix]encoding.Tag) []TagEntry {
	entries := make([]TagEntry, 0, len(m))
	for p, tag := range m {
		entries = append(entries, TagEntry{Prefix: p, Tag: tag})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Prefix < entries[j].Prefix })
	return entries
}

func te(p netaddr.Prefix, tag encoding.Tag) TagEntry { return TagEntry{Prefix: p, Tag: tag} }

// TestTrieBasics pins the stage-1 table's map contract: fresh inserts
// and overwrites are told apart, Len counts prefixes, lookups take the
// longest match, delete then re-delete reports true then false, and
// ForEach walks in ascending (addr, len) order.
func TestTrieBasics(t *testing.T) {
	var tr Poptrie
	p8 := netaddr.MustParsePrefix("10.0.0.0/8")
	p16 := netaddr.MustParsePrefix("10.1.0.0/16")
	p24 := netaddr.MustParsePrefix("10.1.2.0/24")
	def := netaddr.MustParsePrefix("0.0.0.0/0")

	if _, ok := tr.Lookup(0x0a010203); ok {
		t.Fatal("empty trie matched")
	}
	if !tr.Insert(p8, 1) || !tr.Insert(p16, 2) || !tr.Insert(p24, 3) {
		t.Fatal("fresh inserts reported as overwrites")
	}
	if tr.Insert(p16, 20) {
		t.Fatal("overwrite reported as fresh")
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	for _, tc := range []struct {
		addr uint32
		tag  encoding.Tag
		ok   bool
	}{
		{0x0a010203, 3, true},  // 10.1.2.3 -> /24
		{0x0a010303, 20, true}, // 10.1.3.3 -> /16 (overwritten tag)
		{0x0a020303, 1, true},  // 10.2.3.3 -> /8
		{0x0b000001, 0, false}, // 11.0.0.1 -> none
	} {
		got, ok := tr.Lookup(tc.addr)
		if ok != tc.ok || got != tc.tag {
			t.Errorf("Lookup(%08x) = %v,%v want %v,%v", tc.addr, got, ok, tc.tag, tc.ok)
		}
	}
	// Default route catches everything.
	tr.Insert(def, 9)
	if got, ok := tr.Lookup(0x0b000001); !ok || got != 9 {
		t.Errorf("default route: got %v,%v", got, ok)
	}
	if !tr.Delete(p16) || tr.Delete(p16) {
		t.Fatal("delete/re-delete misbehaved")
	}
	if got, ok := tr.Lookup(0x0a010303); !ok || got != 1 {
		t.Errorf("after /16 delete, 10.1.3.3 = %v,%v want 1,true", got, ok)
	}
	// Iterator order is ascending (addr, len).
	var seen []netaddr.Prefix
	tr.ForEach(func(p netaddr.Prefix, _ encoding.Tag) { seen = append(seen, p) })
	want := []netaddr.Prefix{def, p8, p24}
	if len(seen) != len(want) {
		t.Fatalf("ForEach yielded %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", seen, want)
		}
	}
}

// rawPrefix packs addr and length without masking or range checks —
// the shape a corrupt or hand-made assignment can take.
func rawPrefix(addr uint32, length int) netaddr.Prefix {
	return netaddr.Prefix(uint64(addr)<<8 | uint64(length))
}

// coverScan is the brute-force form of Poptrie.cover: the longest
// reference prefix shorter than plen containing addr.
func (r *mapLPM) coverScan(addr uint32, plen int) (encoding.Tag, uint8) {
	for l := plen - 1; l >= 0; l-- {
		for p, tag := range r.m {
			if p.Len() == l && p.Contains(addr) {
				return tag, uint8(l) + 1
			}
		}
	}
	return 0, 0
}

// checkEntries requires pt's ForEach to be strictly ascending and to
// hold exactly the reference's contents, and Get to agree.
func checkEntries(t testing.TB, pt *Poptrie, ref *mapLPM) {
	t.Helper()
	n := 0
	var prev netaddr.Prefix
	pt.ForEach(func(p netaddr.Prefix, tag encoding.Tag) {
		if n > 0 && p <= prev {
			t.Fatalf("ForEach not strictly ascending: %s after %s", p, prev)
		}
		prev = p
		n++
		if want, ok := ref.m[p]; !ok || want != tag {
			t.Fatalf("ForEach yielded %s=%v, reference %v,%v", p, tag, want, ok)
		}
	})
	if n != len(ref.m) || pt.Len() != len(ref.m) {
		t.Fatalf("ForEach yielded %d entries, Len %d, reference %d", n, pt.Len(), len(ref.m))
	}
	for p, want := range ref.m {
		if got, ok := pt.Get(p); !ok || got != want {
			t.Fatalf("Get(%s) = %v,%v want %v,true", p, got, ok, want)
		}
	}
}

// TestTriePropertyVsReference drives the poptrie — sorted store and
// lookup index — against the brute-force reference through long
// randomized insert/delete/lookup sequences: tag overwrites, full
// withdraw-then-re-announce cycles and whole-table Replace swaps. Every
// Insert and Delete return, and Len, must agree after every operation;
// lookups, batched lookups and the cover query are probed along the
// way, and ForEach order and Get are checked at the end.
func TestTriePropertyVsReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var pop Poptrie
			ref := newMapLPM()

			// A confined universe of prefixes so operations collide:
			// overwrites, deletes of absent entries and nested covers all
			// happen often.
			universe := make([]netaddr.Prefix, 0, 256)
			for i := 0; i < 256; i++ {
				length := 8 + rng.Intn(25) // 8..32
				addr := uint32(10)<<24 | uint32(rng.Intn(8))<<16 | uint32(rng.Intn(16))<<8 | uint32(rng.Intn(4))
				universe = append(universe, netaddr.MakePrefix(addr&netaddr.Mask(length), length))
			}
			var batchTags [32]encoding.Tag
			var batchOK [32]bool
			probe := func() {
				var addrs [32]uint32
				for i := range addrs {
					addrs[i] = uint32(10)<<24 | uint32(rng.Intn(8))<<16 | uint32(rng.Intn(16))<<8 | uint32(rng.Intn(256))
				}
				pop.LookupBatch(addrs[:], batchTags[:], batchOK[:])
				for i, addr := range addrs {
					pt, pok := pop.Lookup(addr)
					wt, wok := ref.Lookup(addr)
					if pt != wt || pok != wok {
						t.Fatalf("Lookup(%08x) = %v,%v want %v,%v", addr, pt, pok, wt, wok)
					}
					if batchTags[i] != wt || batchOK[i] != wok {
						t.Fatalf("LookupBatch(%08x) = %v,%v want %v,%v", addr, batchTags[i], batchOK[i], wt, wok)
					}
					plen := rng.Intn(17)
					ct, cl := pop.cover(addr, plen)
					wct, wcl := ref.coverScan(addr, plen)
					if ct != wct || cl != wcl {
						t.Fatalf("cover(%08x, %d) = %v,%d want %v,%d", addr, plen, ct, cl, wct, wcl)
					}
				}
			}
			insert := func(step int, p netaddr.Prefix, tag encoding.Tag) {
				if got, want := pop.Insert(p, tag), ref.Insert(p, tag); got != want {
					t.Fatalf("step %d: Insert(%s) fresh=%v want %v", step, p, got, want)
				}
			}
			remove := func(step int, p netaddr.Prefix) {
				if got, want := pop.Delete(p), ref.Delete(p); got != want {
					t.Fatalf("step %d: Delete(%s) = %v want %v", step, p, got, want)
				}
			}

			for step := 0; step < 4000; step++ {
				p := universe[rng.Intn(len(universe))]
				switch rng.Intn(11) {
				case 0, 1, 2, 3, 4: // insert / overwrite
					insert(step, p, encoding.Tag(rng.Intn(64)))
				case 5, 6, 7: // delete (possibly absent)
					remove(step, p)
				case 8: // withdraw-then-re-announce cycle with a new tag
					remove(step, p)
					insert(step, p, encoding.Tag(rng.Intn(64)))
				case 9: // full flush of a random half, then re-announce
					for _, q := range universe[:len(universe)/2] {
						remove(step, q)
					}
					for _, q := range universe[:len(universe)/4] {
						insert(step, q, encoding.Tag(rng.Intn(64)))
					}
				case 10: // whole-table swap: the burst-end ReplaceTags path
					if err := pop.Replace(sortedEntries(ref.m)); err != nil {
						t.Fatalf("step %d: Replace: %v", step, err)
					}
				}
				if pop.Len() != len(ref.m) {
					t.Fatalf("step %d: Len %d, reference %d", step, pop.Len(), len(ref.m))
				}
				if step%64 == 0 {
					probe()
				}
			}
			probe()
			checkEntries(t, &pop, ref)
		})
	}
}

// TestReplaceEquivalentToInsert pins the bulk stage-1 build against
// per-entry Insert across consecutive Replace cycles of equal, growing
// and shrinking size on ONE long-lived FIB — the case where the
// recycled entry buffer could keep stale entries or a stale index.
// After every swap, and again after random SetTag/RemoveTag mutations
// on top of it, the Replace-built FIB must agree with a freshly
// insert-built one and with the reference on every observable: Len,
// ForEach order, Get, Lookup, the cover query and Dump.
func TestReplaceEquivalentToInsert(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randPrefix := func() netaddr.Prefix {
			length := 4 + rng.Intn(29) // 4..32
			addr := uint32(rng.Intn(1<<20)) << 12
			return netaddr.MakePrefix(addr&netaddr.Mask(length), length)
		}
		randTag := func() encoding.Tag { return encoding.Tag(1 + rng.Intn(1<<16)) }

		fib := New(Config{}) // Replace-built, recycled every cycle
		var ref *mapLPM
		var refFIB *FIB // insert-built, fresh every cycle
		compare := func(when string) {
			t.Helper()
			checkEntries(t, &fib.stage1, ref)
			if fib.Dump() != refFIB.Dump() {
				t.Fatalf("seed %d %s: Dump differs from the insert-built FIB", seed, when)
			}
			want := fib.stage1.entries
			for i := 0; i < 1000; i++ {
				addr := uint32(rng.Intn(1 << 28))
				if len(want) > 0 && i%2 == 0 {
					addr = want[rng.Intn(len(want))].Prefix.Addr() | uint32(rng.Intn(1<<12))
				}
				rt, rok := ref.Lookup(addr)
				it, iok := refFIB.TagOf(addr)
				pt, pok := fib.TagOf(addr)
				if it != rt || iok != rok || pt != rt || pok != rok {
					t.Fatalf("seed %d %s: Lookup(%08x) insert-built=%v,%v bulk=%v,%v want %v,%v", seed, when, addr, it, iok, pt, pok, rt, rok)
				}
				if i%10 == 0 {
					plen := rng.Intn(17)
					ct, cl := fib.stage1.cover(addr, plen)
					wt, wl := ref.coverScan(addr, plen)
					if ct != wt || cl != wl {
						t.Fatalf("seed %d %s: cover(%08x, %d) = %v,%d want %v,%d", seed, when, addr, plen, ct, cl, wt, wl)
					}
				}
			}
		}

		for cycle, n := range []int{300, 300, 700, 40, 40, 1, 500, 0, 200} {
			set := map[netaddr.Prefix]encoding.Tag{}
			for len(set) < n {
				set[randPrefix()] = randTag()
			}
			entries := sortedEntries(set)
			when := fmt.Sprintf("cycle %d (n=%d)", cycle, n)
			if err := fib.ReplaceTags(entries); err != nil {
				t.Fatalf("seed %d %s: ReplaceTags: %v", seed, when, err)
			}
			ref, refFIB = newMapLPM(), New(Config{})
			for p, tag := range set {
				ref.Insert(p, tag)
				refFIB.SetTag(p, tag)
			}
			if cycle%2 == 1 {
				// Compare (and so rebuild the index) on odd cycles only:
				// on even ones the mutations below land on a dirty index.
				compare(when)
			}

			// Single-prefix writes on top of a Replace-built table.
			for i := 0; i < 300; i++ {
				p := randPrefix()
				if len(entries) > 0 && rng.Intn(3) > 0 {
					p = entries[rng.Intn(len(entries))].Prefix
				}
				if rng.Intn(2) == 0 {
					tag := randTag()
					ref.Insert(p, tag)
					fib.SetTag(p, tag)
					refFIB.SetTag(p, tag)
				} else {
					ref.Delete(p)
					fib.RemoveTag(p)
					refFIB.RemoveTag(p)
				}
			}
			compare(when + " after mutation")
		}
	}
}

// TestReplaceRejectsUnsorted pins the stage-1 input check: an
// assignment that is unsorted, duplicated, or holds a prefix longer
// than 32 bits or with host bits set is an error through ReplaceTags
// and Restore, and leaves the table as it was — in particular no
// malformed entry may surface as a cover of unrelated addresses.
func TestReplaceRejectsUnsorted(t *testing.T) {
	p8, p16 := netaddr.MustParsePrefix("10.0.0.0/8"), netaddr.MustParsePrefix("10.1.0.0/16")
	var pt Poptrie
	if err := pt.Replace(nil); err != nil || pt.Len() != 0 {
		t.Fatalf("empty input: %v, len %d", err, pt.Len())
	}
	if err := pt.Replace([]TagEntry{te(netaddr.MustParsePrefix("0.0.0.0/0"), 1), te(p8, 2)}); err != nil {
		t.Fatalf("default route rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		tags []TagEntry
	}{
		{"unsorted", []TagEntry{te(p16, 3), te(p8, 4)}},
		{"duplicate", []TagEntry{te(p8, 3), te(p8, 4)}},
		{"len33", []TagEntry{te(p8, 3), te(rawPrefix(0x0a010000, 33), 4)}},
		{"len40", []TagEntry{te(rawPrefix(0xc0a80000, 40), 4)}},
		{"hostbits", []TagEntry{te(rawPrefix(0x0a010203, 8), 4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if encoding.CheckTags(tc.tags) == nil {
				t.Fatal("CheckTags accepted the input")
			}
			f := New(Config{})
			if err := f.ReplaceTags([]TagEntry{te(p8, 1), te(p16, 2)}); err != nil {
				t.Fatal(err)
			}
			before, writes := f.Dump(), f.Writes()
			if err := f.ReplaceTags(tc.tags); err == nil {
				t.Fatal("ReplaceTags accepted the input")
			}
			if f.Dump() != before || f.Writes() != writes {
				t.Fatal("rejected ReplaceTags changed the FIB")
			}
			if got, ok := f.TagOf(0x0a010203); !ok || got != 2 {
				t.Fatalf("after rejected swap: TagOf(10.1.2.3) = %v,%v want 2", got, ok)
			}
			if _, ok := f.TagOf(0xc0a80001); ok {
				t.Fatal("after rejected swap: 192.168.0.1 matches")
			}
			if _, err := Restore(Config{}, FIBImage{Tags: tc.tags}); err == nil {
				t.Fatal("Restore accepted the input")
			}
		})
	}
}
