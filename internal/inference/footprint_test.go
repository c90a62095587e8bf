package inference

import (
	"runtime"
	"testing"

	"swift/internal/netaddr"
	"swift/internal/rib"
)

// footprintPath spells i in base ten over ASes 10–19: a million
// distinct paths over about a hundred links, so the fixture's cost
// is per path id, not per link id.
func footprintPath(i int) []uint32 {
	path := make([]uint32, 6)
	for d := len(path) - 1; d >= 0; d-- {
		path[d] = uint32(10 + i%10)
		i /= 10
	}
	return path
}

// TestFootprintFollowsOwnPaths: in a pool the rest of a fleet has
// filled with 100k paths, a table holding 10 routes and a tracker
// holding 10 withdrawals must cost what their own paths cost plus a
// 4-byte PathID→slot index each — not a 40- or 32-byte group per
// id the pool has numbered. Per-id groups allocate 10.8 MB here; the
// bound is a tenth of that.
func TestFootprintFollowsOwnPaths(t *testing.T) {
	const fleet, own = 100_000, 10
	pool := rib.NewPool()
	held := make([]rib.PathHandle, fleet)
	for i := range held {
		held[i] = pool.Intern(footprintPath(i))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	table := rib.NewWithPool(1, pool)
	for i := 0; i < 2*own; i++ {
		table.Announce(netaddr.PrefixFor(8, i), footprintPath(fleet+i))
	}
	tr := NewTracker(Default(), table)
	for i := 0; i < own; i++ {
		tr.ObserveWithdraw(netaddr.PrefixFor(8, i))
	}
	runtime.ReadMemStats(&after)
	if table.Len() != own || tr.Received() != own {
		t.Fatalf("fixture holds %d routes and %d withdrawals, want %d each", table.Len(), tr.Received(), own)
	}
	const bound = 1_080_000
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("table + tracker over %d routes allocate %d bytes in a %d-path pool, want <= %d",
			own, got, fleet, bound)
	}
	runtime.KeepAlive(held)
}
