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
// map-plus-length-scan structure the FIB used before the trie. It is
// the model the property test pins Trie against.
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

func TestTrieBasics(t *testing.T) {
	var tr Trie
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

// TestTriePropertyVsReference drives the trie AND the poptrie read
// path against the brute-force reference through long randomized
// insert/delete/lookup sequences — tag overwrites, full
// withdraw-then-re-announce cycles, whole-table Replace swaps and
// batched ops — and requires the three structures to agree on every
// observable after every (batch) operation.
func TestTriePropertyVsReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var tr Trie
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
					gt, gok := tr.Lookup(addr)
					pt, pok := pop.Lookup(addr)
					wt, wok := ref.Lookup(addr)
					if gt != wt || gok != wok {
						t.Fatalf("trie Lookup(%08x) = %v,%v want %v,%v", addr, gt, gok, wt, wok)
					}
					if pt != wt || pok != wok {
						t.Fatalf("poptrie Lookup(%08x) = %v,%v want %v,%v", addr, pt, pok, wt, wok)
					}
					if batchTags[i] != wt || batchOK[i] != wok {
						t.Fatalf("poptrie LookupBatch(%08x) = %v,%v want %v,%v", addr, batchTags[i], batchOK[i], wt, wok)
					}
				}
			}
			insert := func(step int, p netaddr.Prefix, tag encoding.Tag) {
				got, pgot, want := tr.Insert(p, tag), pop.Insert(p, tag), ref.Insert(p, tag)
				if got != want || pgot != want {
					t.Fatalf("step %d: Insert(%s) fresh trie=%v pop=%v want %v", step, p, got, pgot, want)
				}
			}
			remove := func(step int, p netaddr.Prefix) {
				got, pgot, want := tr.Delete(p), pop.Delete(p), ref.Delete(p)
				if got != want || pgot != want {
					t.Fatalf("step %d: Delete(%s) trie=%v pop=%v want %v", step, p, got, pgot, want)
				}
			}

			for step := 0; step < 4000; step++ {
				p := universe[rng.Intn(len(universe))]
				switch rng.Intn(12) {
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
				case 10: // batched churn: one InsertBatch + one DeleteBatch
					entries := make([]TagEntry, 0, 8)
					dels := make([]netaddr.Prefix, 0, 4)
					for i := 0; i < 8; i++ {
						entries = append(entries, TagEntry{Prefix: universe[rng.Intn(len(universe))], Tag: encoding.Tag(rng.Intn(64))})
					}
					for i := 0; i < 4; i++ {
						dels = append(dels, universe[rng.Intn(len(universe))])
					}
					pfresh := pop.InsertBatch(entries)
					fresh, wfresh := 0, 0
					for _, e := range entries {
						if tr.Insert(e.Prefix, e.Tag) {
							fresh++
						}
						if ref.Insert(e.Prefix, e.Tag) {
							wfresh++
						}
					}
					if fresh != wfresh || pfresh != wfresh {
						t.Fatalf("step %d: InsertBatch fresh trie=%d pop=%d want %d", step, fresh, pfresh, wfresh)
					}
					phit := pop.DeleteBatch(dels)
					hit, whit := 0, 0
					for _, q := range dels {
						if tr.Delete(q) {
							hit++
						}
						if ref.Delete(q) {
							whit++
						}
					}
					if hit != whit || phit != whit {
						t.Fatalf("step %d: DeleteBatch hit trie=%d pop=%d want %d", step, hit, phit, whit)
					}
				case 11: // whole-table swap: the burst-end ReplaceTags path
					snap := sortedEntries(ref.m)
					if err := pop.Replace(snap); err != nil {
						t.Fatalf("step %d: poptrie Replace: %v", step, err)
					}
					if err := tr.Replace(snap); err != nil {
						t.Fatalf("step %d: trie Replace: %v", step, err)
					}
				}
				if tr.Len() != len(ref.m) || pop.Len() != len(ref.m) {
					t.Fatalf("step %d: Len trie=%d pop=%d, reference %d", step, tr.Len(), pop.Len(), len(ref.m))
				}
				if step%64 == 0 {
					probe()
				}
			}
			probe()

			// Exact-match view and iteration agree with the reference.
			n := 0
			tr.ForEach(func(p netaddr.Prefix, tag encoding.Tag) {
				n++
				if want, ok := ref.m[p]; !ok || want != tag {
					t.Fatalf("ForEach yielded %s=%v, reference %v,%v", p, tag, want, ok)
				}
			})
			if n != len(ref.m) {
				t.Fatalf("ForEach yielded %d entries, reference %d", n, len(ref.m))
			}
			for p, want := range ref.m {
				if got, ok := tr.Get(p); !ok || got != want {
					t.Fatalf("Get(%s) = %v,%v want %v,true", p, got, ok, want)
				}
				if got, ok := pop.Get(p); !ok || got != want {
					t.Fatalf("poptrie Get(%s) = %v,%v want %v,true", p, got, ok, want)
				}
			}
		})
	}
}

func TestPoptrieBatchOps(t *testing.T) {
	var tr Poptrie
	entries := []TagEntry{
		{Prefix: netaddr.MustParsePrefix("10.0.0.0/8"), Tag: 1},
		{Prefix: netaddr.MustParsePrefix("10.1.0.0/16"), Tag: 2},
		{Prefix: netaddr.MustParsePrefix("10.1.0.0/16"), Tag: 3}, // overwrite within batch
	}
	if fresh := tr.InsertBatch(entries); fresh != 2 {
		t.Fatalf("InsertBatch fresh = %d, want 2", fresh)
	}
	if got, _ := tr.Lookup(0x0a010000); got != 3 {
		t.Fatalf("batch overwrite lost: got %v", got)
	}
	if hit := tr.DeleteBatch([]netaddr.Prefix{
		netaddr.MustParsePrefix("10.1.0.0/16"),
		netaddr.MustParsePrefix("10.9.0.0/16"), // absent
	}); hit != 1 {
		t.Fatalf("DeleteBatch hit = %d, want 1", hit)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

// TestReplaceEquivalentToInsert pins the single stage-1 build path
// against per-entry Insert across consecutive Replace cycles of equal,
// growing and shrinking size on ONE long-lived table — the case where
// the recycled node slab could alias stale children. After every swap,
// and again after random Insert/Delete/InsertBatch mutations on top of
// it, the slab-built structures (bare Trie, Poptrie read path, FIB)
// must agree with freshly insert-built ones on every observable: Len,
// ForEach order, Get, Lookup, lookupMax and Dump.
func TestReplaceEquivalentToInsert(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randPrefix := func() netaddr.Prefix {
			length := 4 + rng.Intn(29) // 4..32
			addr := uint32(rng.Intn(1<<20)) << 12
			return netaddr.MakePrefix(addr&netaddr.Mask(length), length)
		}
		randTag := func() encoding.Tag { return encoding.Tag(1 + rng.Intn(1<<16)) }

		bulk := &Trie{} // slab-built, recycled every cycle
		fib := New(Config{})
		var ref *Trie // insert-built, fresh every cycle
		var refFIB *FIB
		compare := func(when string) {
			t.Helper()
			if bulk.Len() != ref.Len() || fib.NumTags() != ref.Len() {
				t.Fatalf("seed %d %s: Len bulk=%d fib=%d want %d", seed, when, bulk.Len(), fib.NumTags(), ref.Len())
			}
			var got, pgot, want []TagEntry
			bulk.ForEach(func(p netaddr.Prefix, tag encoding.Tag) { got = append(got, te(p, tag)) })
			fib.stage1.ForEach(func(p netaddr.Prefix, tag encoding.Tag) { pgot = append(pgot, te(p, tag)) })
			ref.ForEach(func(p netaddr.Prefix, tag encoding.Tag) { want = append(want, te(p, tag)) })
			for i := range want {
				if got[i] != want[i] || pgot[i] != want[i] {
					t.Fatalf("seed %d %s: ForEach[%d] bulk=%+v fib=%+v want %+v", seed, when, i, got[i], pgot[i], want[i])
				}
				bt, bok := bulk.Get(want[i].Prefix)
				pt, pok := fib.stage1.Get(want[i].Prefix)
				if !bok || !pok || bt != want[i].Tag || pt != want[i].Tag {
					t.Fatalf("seed %d %s: Get(%v) bulk=%v,%v fib=%v,%v want %v", seed, when, want[i].Prefix, bt, bok, pt, pok, want[i].Tag)
				}
			}
			for i := 0; i < 1000; i++ {
				addr := uint32(rng.Intn(1 << 28))
				if len(want) > 0 && i%2 == 0 {
					addr = want[rng.Intn(len(want))].Prefix.Addr() | uint32(rng.Intn(1<<12))
				}
				rt, rok := ref.Lookup(addr)
				bt, bok := bulk.Lookup(addr)
				pt, pok := fib.TagOf(addr)
				if bt != rt || bok != rok || pt != rt || pok != rok {
					t.Fatalf("seed %d %s: Lookup(%08x) bulk=%v,%v fib=%v,%v want %v,%v", seed, when, addr, bt, bok, pt, pok, rt, rok)
				}
				maxBits := uint8(rng.Intn(33))
				rt, rl := ref.lookupMax(addr, maxBits)
				bt, bl := bulk.lookupMax(addr, maxBits)
				pt, pl := fib.stage1.Trie().lookupMax(addr, maxBits)
				if bt != rt || bl != rl || pt != rt || pl != rl {
					t.Fatalf("seed %d %s: lookupMax(%08x,%d) bulk=%v,%d fib=%v,%d want %v,%d", seed, when, addr, maxBits, bt, bl, pt, pl, rt, rl)
				}
			}
			if fib.Dump() != refFIB.Dump() {
				t.Fatalf("seed %d %s: Dump differs from the insert-built FIB", seed, when)
			}
		}

		for cycle, n := range []int{300, 300, 700, 40, 40, 1, 500, 0, 200} {
			set := map[netaddr.Prefix]encoding.Tag{}
			for len(set) < n {
				set[randPrefix()] = randTag()
			}
			entries := sortedEntries(set)
			when := fmt.Sprintf("cycle %d (n=%d)", cycle, n)
			if err := bulk.Replace(entries); err != nil {
				t.Fatalf("seed %d %s: Trie.Replace: %v", seed, when, err)
			}
			if err := fib.ReplaceTags(entries); err != nil {
				t.Fatalf("seed %d %s: ReplaceTags: %v", seed, when, err)
			}
			ref, refFIB = &Trie{}, New(Config{})
			for p, tag := range set {
				ref.Insert(p, tag)
				refFIB.SetTag(p, tag)
			}
			if cycle%2 == 1 {
				// Leave the read path stale on odd cycles: mutations
				// below then land on a dirty poptrie.
				compare(when)
			}

			// Mutations on top of a slab-built table: heap nodes link
			// into (and out of) slab nodes, deleted slab nodes collapse.
			for i := 0; i < 300; i++ {
				p := randPrefix()
				if len(entries) > 0 && rng.Intn(3) > 0 {
					p = entries[rng.Intn(len(entries))].Prefix
				}
				switch rng.Intn(3) {
				case 0:
					tag := randTag()
					bulk.Insert(p, tag)
					ref.Insert(p, tag)
					fib.SetTag(p, tag)
					refFIB.SetTag(p, tag)
				case 1:
					bulk.Delete(p)
					ref.Delete(p)
					fib.RemoveTag(p)
					refFIB.RemoveTag(p)
				case 2:
					batch := []TagEntry{te(p, randTag()), te(randPrefix(), randTag()), te(randPrefix(), randTag())}
					for _, e := range batch {
						bulk.Insert(e.Prefix, e.Tag)
						ref.Insert(e.Prefix, e.Tag)
					}
					fib.stage1.InsertBatch(batch)
					refFIB.stage1.InsertBatch(batch)
				}
			}
			compare(when + " after mutation")
		}
	}
}

// TestReplaceRejectsUnsorted pins the strictly-ascending precondition:
// unsorted or duplicate input is an error and leaves the table as it
// was.
func TestReplaceRejectsUnsorted(t *testing.T) {
	p8, p16 := netaddr.MustParsePrefix("10.0.0.0/8"), netaddr.MustParsePrefix("10.1.0.0/16")
	var tr Trie
	if err := tr.Replace([]TagEntry{te(p16, 1), te(p8, 2)}); err == nil {
		t.Fatal("unsorted input accepted")
	}
	if err := tr.Replace([]TagEntry{te(p8, 1), te(p8, 2)}); err == nil {
		t.Fatal("duplicate input accepted")
	}
	if err := tr.Replace(nil); err != nil || tr.Len() != 0 {
		t.Fatalf("empty input: %v, len %d", err, tr.Len())
	}
	f := New(Config{})
	if err := f.ReplaceTags([]TagEntry{te(p8, 1), te(p16, 2)}); err != nil {
		t.Fatal(err)
	}
	before, writes := f.Dump(), f.Writes()
	if err := f.ReplaceTags([]TagEntry{te(p16, 3), te(p8, 4)}); err == nil {
		t.Fatal("ReplaceTags accepted unsorted input")
	}
	if f.Dump() != before || f.Writes() != writes {
		t.Fatal("rejected ReplaceTags changed the FIB")
	}
	if got, ok := f.TagOf(0x0a010203); !ok || got != 2 {
		t.Fatalf("after rejected swap: TagOf = %v,%v want 2", got, ok)
	}
}
