package dataplane

import (
	"testing"

	"swift/internal/encoding"
	"swift/internal/netaddr"
)

// FuzzLPMOps drives the poptrie-fronted stage-1 LPM and the bare trie
// through a fuzzer-chosen stream of interleaved InsertBatch /
// DeleteBatch / Lookup / whole-table Replace operations, checking every
// observable against the brute-force map reference: batch return
// counts, point lookups, entry counts, and a final full-table sweep.
// Ops are decoded from 6-byte records — [op][addr:4][len] — and mostly
// confined to a small address pocket so covers, overwrites, collapses
// and re-announces collide constantly. A lookup record with op bit 3
// set (op 11) first swaps both structures for a sorted bulk build of
// the reference's current contents, so later ops run on a recycled
// node slab.
func FuzzLPMOps(f *testing.F) {
	for _, seed := range fuzzLPMSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Trie
		var pop Poptrie
		ref := newMapLPM()
		var ins []TagEntry
		var dels []netaddr.Prefix
		var touched []uint32

		check := func(addr uint32) {
			wt, wok := ref.Lookup(addr)
			if gt, gok := pop.Lookup(addr); gt != wt || gok != wok {
				t.Fatalf("poptrie Lookup(%08x) = %v,%v want %v,%v", addr, gt, gok, wt, wok)
			}
			if gt, gok := tr.Lookup(addr); gt != wt || gok != wok {
				t.Fatalf("trie Lookup(%08x) = %v,%v want %v,%v", addr, gt, gok, wt, wok)
			}
		}
		flush := func() {
			if len(ins) > 0 {
				got, want := 0, 0
				for _, e := range ins {
					if tr.Insert(e.Prefix, e.Tag) {
						got++
					}
					if ref.Insert(e.Prefix, e.Tag) {
						want++
					}
				}
				if pgot := pop.InsertBatch(ins); got != want || pgot != want {
					t.Fatalf("InsertBatch fresh trie=%d pop=%d want %d", got, pgot, want)
				}
				ins = ins[:0]
			}
			if len(dels) > 0 {
				got, want := 0, 0
				for _, p := range dels {
					if tr.Delete(p) {
						got++
					}
					if ref.Delete(p) {
						want++
					}
				}
				if pgot := pop.DeleteBatch(dels); got != want || pgot != want {
					t.Fatalf("DeleteBatch hit trie=%d pop=%d want %d", got, pgot, want)
				}
				dels = dels[:0]
			}
			if tr.Len() != len(ref.m) || pop.Len() != len(ref.m) {
				t.Fatalf("Len trie=%d pop=%d want %d", tr.Len(), pop.Len(), len(ref.m))
			}
		}

		for len(data) >= 6 {
			op, rec := data[0], data[1:6]
			data = data[6:]
			addr := uint32(rec[0])<<24 | uint32(rec[1])<<16 | uint32(rec[2])<<8 | uint32(rec[3])
			if op&4 == 0 {
				// Confined pocket: ops collide, covers nest.
				addr = uint32(10)<<24 | uint32(rec[1]&3)<<16 | uint32(rec[2]&15)<<8 | uint32(rec[3])
			}
			length := int(rec[4] % 33)
			pfx := netaddr.MakePrefix(addr&netaddr.Mask(length), length)
			touched = append(touched, addr)
			switch op % 3 {
			case 0:
				ins = append(ins, TagEntry{Prefix: pfx, Tag: encoding.Tag(rec[3] ^ rec[4])})
			case 1:
				dels = append(dels, pfx)
			case 2:
				flush()
				if op&8 != 0 {
					snap := sortedEntries(ref.m)
					if err := pop.Replace(snap); err != nil {
						t.Fatalf("poptrie Replace: %v", err)
					}
					if err := tr.Replace(snap); err != nil {
						t.Fatalf("trie Replace: %v", err)
					}
				}
				check(addr)
			}
		}
		flush()
		for _, addr := range touched {
			check(addr)
		}
		n := 0
		pop.ForEach(func(p netaddr.Prefix, tag encoding.Tag) {
			n++
			if want, ok := ref.m[p]; !ok || want != tag {
				t.Fatalf("ForEach yielded %s=%v, reference %v,%v", p, tag, want, ok)
			}
		})
		if n != len(ref.m) {
			t.Fatalf("ForEach yielded %d entries, reference %d", n, len(ref.m))
		}
	})
}

// fuzzLPMSeeds hand-builds op streams covering the structure's seams:
// nested covers across the /16 stride, default-route expansion,
// withdraw/re-announce cycles, and chunk-subtree collapse.
func fuzzLPMSeeds() [][]byte {
	rec := func(op byte, addr uint32, length byte) []byte {
		return []byte{op, byte(addr >> 24), byte(addr >> 16), byte(addr >> 8), byte(addr), length}
	}
	cat := func(recs ...[]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	a := uint32(10)<<24 | 1<<16 | 2<<8 | 3
	return [][]byte{
		// Nested tower 0/8/16/24/32, probe, then peel it top-down.
		cat(rec(0, a, 0), rec(0, a, 8), rec(0, a, 16), rec(0, a, 24), rec(0, a, 32),
			rec(2, a, 0), rec(1, a, 32), rec(1, a, 24), rec(2, a, 0), rec(1, a, 16), rec(2, a, 0)),
		// Withdraw/re-announce churn on one /24 with tag changes.
		cat(rec(0, a, 24), rec(1, a, 24), rec(0, a, 24), rec(2, a, 0), rec(1, a, 24), rec(2, a, 0)),
		// Wide-address ops (op&4 set): chunk 0xffff and chunk 0.
		cat(rec(4, 0xffffffff, 32), rec(4, 0x00000001, 32), rec(6, 0xffffffff, 0), rec(6, 0x00000001, 0)),
		// Batched mixed insert+delete flushed together.
		cat(rec(0, a, 20), rec(0, a, 22), rec(1, a, 20), rec(0, a, 28), rec(2, a, 0)),
		// Whole-table swaps (op 11) between churn: grow, shrink to
		// empty, regrow — every build after the first recycles the slab.
		cat(rec(0, a, 8), rec(0, a, 24), rec(0, a, 32), rec(11, a, 0), rec(0, a, 28), rec(1, a, 24),
			rec(11, a, 0), rec(1, a, 8), rec(1, a, 32), rec(1, a, 28), rec(11, a, 0), rec(0, a, 16), rec(11, a, 0)),
	}
}
