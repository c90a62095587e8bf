package dataplane

import (
	"cmp"
	"slices"
	"testing"

	"swift/internal/encoding"
	"swift/internal/netaddr"
)

// FuzzLPMOps drives the stage-1 poptrie through a fuzzer-chosen stream
// of single-prefix Insert / Delete / Lookup / whole-table Replace
// operations, checking every observable against the brute-force map
// reference: each Insert's fresh and Delete's hit return, point
// lookups and Len after every op, and a final sweep of the touched
// addresses plus ForEach order and contents. Ops are decoded from
// 6-byte records — [op][addr:4][len] — and mostly confined to a small
// address pocket so covers, overwrites, collapses and re-announces
// collide constantly. A lookup record (op%3 == 2) first swaps in a
// sorted bulk copy of the reference's contents when op bit 3 is set
// (op 11), so later ops run on a recycled buffer; with op bit 4 set it
// instead hands Replace that copy plus one prefix packed from the raw
// address and length bytes, unmasked, which must fail exactly when
// encoding.CheckTags does and then leave the table unchanged.
func FuzzLPMOps(f *testing.F) {
	for _, seed := range fuzzLPMSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var pop Poptrie
		ref := newMapLPM()
		var touched []uint32

		check := func(addr uint32) {
			wt, wok := ref.Lookup(addr)
			if gt, gok := pop.Lookup(addr); gt != wt || gok != wok {
				t.Fatalf("Lookup(%08x) = %v,%v want %v,%v", addr, gt, gok, wt, wok)
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
				tag := encoding.Tag(rec[3] ^ rec[4])
				if got, want := pop.Insert(pfx, tag), ref.Insert(pfx, tag); got != want {
					t.Fatalf("Insert(%s) fresh=%v want %v", pfx, got, want)
				}
			case 1:
				if got, want := pop.Delete(pfx), ref.Delete(pfx); got != want {
					t.Fatalf("Delete(%s) = %v want %v", pfx, got, want)
				}
			case 2:
				switch {
				case op&16 != 0:
					raw := rawPrefix(addr, int(rec[4]))
					snap := append(sortedEntries(ref.m), te(raw, 1))
					slices.SortFunc(snap, func(a, b TagEntry) int { return cmp.Compare(a.Prefix, b.Prefix) })
					err, want := pop.Replace(snap), encoding.CheckTags(snap)
					if (err == nil) != (want == nil) {
						t.Fatalf("Replace with %#x: err %v, CheckTags %v", uint64(raw), err, want)
					}
					if err == nil {
						ref.Insert(raw, 1)
					}
					checkEntries(t, &pop, ref)
				case op&8 != 0:
					if err := pop.Replace(sortedEntries(ref.m)); err != nil {
						t.Fatalf("Replace: %v", err)
					}
				}
				check(addr)
			}
			if pop.Len() != len(ref.m) {
				t.Fatalf("Len %d want %d", pop.Len(), len(ref.m))
			}
		}
		for _, addr := range touched {
			check(addr)
		}
		checkEntries(t, &pop, ref)
	})
}

// fuzzLPMSeeds hand-builds op streams covering the structure's seams:
// nested covers across the /16 stride, default-route expansion,
// withdraw/re-announce cycles, chunk-subtree collapse and malformed
// whole-table swaps.
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
		// Mixed insert+delete, then a probe.
		cat(rec(0, a, 20), rec(0, a, 22), rec(1, a, 20), rec(0, a, 28), rec(2, a, 0)),
		// Whole-table swaps (op 11) between churn: grow, shrink to
		// empty, regrow — every swap after the first recycles the buffer.
		cat(rec(0, a, 8), rec(0, a, 24), rec(0, a, 32), rec(11, a, 0), rec(0, a, 28), rec(1, a, 24),
			rec(11, a, 0), rec(1, a, 8), rec(1, a, 32), rec(1, a, 28), rec(11, a, 0), rec(0, a, 16), rec(11, a, 0)),
		// Raw-prefix swaps (op 26): length 40 and host bits rejected, a
		// canonical /16 accepted, then rejected as a duplicate.
		cat(rec(0, a, 8), rec(0, a, 24), rec(26, a, 40), rec(26, a, 8), rec(26, 0x0a010000, 16), rec(2, a, 0),
			rec(26, 0x0a010000, 16), rec(1, 0x0a010000, 16), rec(2, a, 0)),
	}
}
