package rib

import (
	"testing"

	"swift/internal/netaddr"
)

// FuzzTableOps drives one table through a fuzzer-chosen stream of
// announce, withdraw, Clone and Release operations over a small path
// and prefix alphabet, so groups empty, park their arrays and hand them
// to other paths constantly. Ops are decoded from 2-byte records
// [op][arg]: op%8 < 5 announces prefix arg%24 over path (op>>3)%8,
// 5 and 6 withdraw it, and 7 either clones the table and carries on
// with the clone (releasing the original) or, with op bit 3 set,
// releases the table in place. After every op the table must match a
// map model route for route and pass checkGroups; at the end, releasing
// the table must return every path reference to the pool.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 8, 2, 16, 1, 5, 1, 7, 0, 24, 3, 15, 0, 32, 3})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 5, 0, 5, 1, 5, 2, 8, 3, 8, 4, 7, 0, 6, 3, 16, 0})
	f.Add([]byte{56, 9, 48, 10, 40, 11, 6, 9, 6, 10, 15, 0, 0, 9, 8, 10, 7, 1, 6, 11})
	paths := make([][]uint32, 8)
	for i := range paths {
		paths[i] = []uint32{uint32(2 + i%2), uint32(5 + i%3), uint32(10 + i)}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pool := NewPool()
		tb := NewWithPool(1, pool)
		model := make(map[netaddr.Prefix]int)
		for ; len(data) >= 2; data = data[2:] {
			op, arg := data[0], data[1]
			p := netaddr.PrefixFor(uint32(2+arg%24/4), int(arg%24%4))
			switch kind := op % 8; {
			case kind < 5:
				pi := int(op>>3) % len(paths)
				tb.Announce(p, paths[pi])
				model[p] = pi
			case kind < 7:
				tb.Withdraw(p)
				delete(model, p)
			case op&8 == 0:
				cp := tb.Clone()
				tb.Release()
				if err := checkGroups(tb); err != nil || tb.Len() != 0 {
					t.Fatalf("released original: len %d, %v", tb.Len(), err)
				}
				tb = cp
			default:
				tb.Release()
				clear(model)
			}
			if tb.Len() != len(model) {
				t.Fatalf("Len() = %d, model has %d routes", tb.Len(), len(model))
			}
			for mp, pi := range model {
				if !pathsEqual(tb.Path(mp), paths[pi]) {
					t.Fatalf("Path(%v) = %v, want %v", mp, tb.Path(mp), paths[pi])
				}
			}
			if err := checkGroups(tb); err != nil {
				t.Fatal(err)
			}
		}
		tb.Release()
		if n := pool.Len(); n != 0 {
			t.Fatalf("released table leaves %d referenced paths in the pool", n)
		}
	})
}
