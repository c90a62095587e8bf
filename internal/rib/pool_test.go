package rib

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"swift/internal/netaddr"
	"swift/internal/topology"
)

// TestAnnounceDoesNotAliasCallerBuffer is the regression test for the
// old aliasing footgun: Announce used to store the caller's slice, so a
// buffer-reusing source (a BGP decoder) silently corrupted the RIB.
// Interning makes storage canonical — mutating the buffer after
// Announce must leave the table untouched.
func TestAnnounceDoesNotAliasCallerBuffer(t *testing.T) {
	tb := New(1)
	p := netaddr.PrefixFor(8, 0)
	buf := []uint32{2, 5, 6, 8}
	tb.Announce(p, buf)

	// Source reuses its buffer for the next message.
	buf[0], buf[1], buf[2], buf[3] = 9, 9, 9, 9

	got := tb.Path(p)
	want := []uint32{2, 5, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("path = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path = %v, want %v (caller's buffer mutation leaked in)", got, want)
		}
	}
	// The link index must reflect the original path too.
	if tb.OnLink(link(5, 6)) != 1 || tb.OnLink(link(9, 9)) != 0 {
		t.Error("link counters follow the mutated buffer, not the canonical path")
	}
	// And a second prefix announcing the same (restored) content shares
	// the canonical copy.
	buf[0], buf[1], buf[2], buf[3] = 2, 5, 6, 8
	p2 := netaddr.PrefixFor(8, 1)
	tb.Announce(p2, buf)
	if tb.Pool().Len() != 1 {
		t.Errorf("pool holds %d paths, want 1 (identical paths must intern)", tb.Pool().Len())
	}
}

func TestWithdrawnPathSurvivesEntryReuse(t *testing.T) {
	tb := New(1)
	p := netaddr.PrefixFor(8, 0)
	tb.Announce(p, []uint32{2, 5, 6})
	old := tb.Withdraw(p) // frees the entry slot
	// Reuse the slot with a different path.
	tb.Announce(p, []uint32{3, 9})
	if len(old) != 3 || old[0] != 2 || old[1] != 5 || old[2] != 6 {
		t.Fatalf("withdrawn path corrupted by slot reuse: %v", old)
	}
}

func TestPoolRefcountLifecycle(t *testing.T) {
	pool := NewPool()
	a := NewWithPool(1, pool)
	b := NewWithPool(1, pool)

	// Two tables, overlapping paths: each unique path stored once.
	for i := 0; i < 100; i++ {
		a.Announce(netaddr.PrefixFor(8, i), []uint32{2, 5, 6, 8})
		b.Announce(netaddr.PrefixFor(8, i), []uint32{2, 5, 6, 8})
		b.Announce(netaddr.PrefixFor(7, i), []uint32{2, 5, 6, 7})
	}
	if got := pool.Len(); got != 2 {
		t.Fatalf("pool.Len() = %d, want 2 unique paths", got)
	}

	// Withdrawing every route returns the pool to baseline.
	for i := 0; i < 100; i++ {
		a.Withdraw(netaddr.PrefixFor(8, i))
		b.Withdraw(netaddr.PrefixFor(8, i))
		b.Withdraw(netaddr.PrefixFor(7, i))
	}
	if got := pool.Len(); got != 0 {
		t.Fatalf("pool.Len() = %d after withdrawing everything, want 0", got)
	}
	// Unreferenced paths wait in limbo, still indexed, until a sweep
	// reclaims their slots.
	if st := pool.Stats(); st.Paths != 0 || st.Limbo != 2 || st.FreeSlots != 0 {
		t.Errorf("after release: %d paths, %d in limbo, %d free slots; want 0, 2, 0", st.Paths, st.Limbo, st.FreeSlots)
	}
	if n := pool.Sweep(); n != 2 {
		t.Errorf("Sweep reclaimed %d paths, want 2", n)
	}
	st := pool.Stats()
	if st.Paths != 0 || st.Limbo != 0 || st.FreeSlots != 2 {
		t.Errorf("after sweep: %d paths, %d in limbo, %d free slots; want 0, 0, 2", st.Paths, st.Limbo, st.FreeSlots)
	}
	// Links are never freed.
	if st.Links == 0 {
		t.Error("links must persist")
	}
}

func TestCloneRetainsAndReleaseReturns(t *testing.T) {
	pool := NewPool()
	tb := NewWithPool(1, pool)
	for i := 0; i < 50; i++ {
		tb.Announce(netaddr.PrefixFor(8, i), []uint32{2, 5, 6})
	}
	cp := tb.Clone()
	for i := 0; i < 50; i++ {
		tb.Withdraw(netaddr.PrefixFor(8, i))
	}
	// The clone still references the path.
	if pool.Len() != 1 {
		t.Fatalf("pool.Len() = %d with live clone, want 1", pool.Len())
	}
	if cp.Len() != 50 || cp.OnLink(link(5, 6)) != 50 {
		t.Error("clone lost state after original withdrew")
	}
	cp.Release()
	if pool.Len() != 0 {
		t.Fatalf("pool.Len() = %d after clone release, want 0", pool.Len())
	}
	if cp.Len() != 0 {
		t.Error("released table must be empty")
	}
}

func TestLongAndPrependedPaths(t *testing.T) {
	tb := New(1)
	// 24-hop path: longer than the old fixed 16-link scratch buffers.
	long := make([]uint32, 24)
	for i := range long {
		long[i] = uint32(100 + i)
	}
	p := netaddr.PrefixFor(8, 0)
	tb.Announce(p, long)
	if got := len(tb.Links(p)); got != 24 {
		t.Errorf("24-hop path yields %d links, want 24", got)
	}
	if tb.OnLink(topology.MakeLink(110, 111)) != 1 {
		t.Error("deep link not counted")
	}

	// Prepending dedups: {2,2,2,5} crosses (1,2) and (2,5) only.
	p2 := netaddr.PrefixFor(8, 1)
	tb.Announce(p2, []uint32{2, 2, 2, 5})
	if tb.OnLink(link(1, 2)) != 1 || tb.OnLink(link(2, 5)) != 1 {
		t.Error("prepended path miscounted")
	}
	if tb.OnLink(link(2, 2)) != 0 {
		t.Error("self-loop must not be a link")
	}

	// A path revisiting a link counts it once per prefix.
	p3 := netaddr.PrefixFor(8, 2)
	tb.Announce(p3, []uint32{2, 9, 2, 5})
	if got := tb.OnLink(link(2, 9)); got != 1 {
		t.Errorf("OnLink(2,9) = %d, want 1 (revisited link counted once)", got)
	}
}

// TestHeadEqualsLocalAS covers paths starting at the table's own AS:
// there is no local first-hop link to cross.
func TestHeadEqualsLocalAS(t *testing.T) {
	tb := New(1)
	p := netaddr.PrefixFor(8, 0)
	tb.Announce(p, []uint32{1, 2, 5})
	if tb.OnLink(link(1, 2)) != 1 || tb.OnLink(link(2, 5)) != 1 {
		t.Error("interior links of a local-headed path missing")
	}
	got := tb.PrefixesOnAny([]topology.Link{link(1, 2)})
	if len(got) != 1 || got[0] != p {
		t.Errorf("PrefixesOnAny = %v", got)
	}
}

// TestRandomizedPoolBaseline announces and withdraws random routes,
// then drains the table and checks the pool returns to empty — the
// refcount-leak property on a messier schedule than the lifecycle test.
func TestRandomizedPoolBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := NewPool()
	tb := NewWithPool(1, pool)
	paths := [][]uint32{
		{2, 5, 6}, {2, 5, 6, 8}, {3, 6}, {3, 6, 8}, {2, 2, 5}, {4, 7, 9, 11},
	}
	for i := 0; i < 5000; i++ {
		p := netaddr.PrefixFor(uint32(2+rng.Intn(6)), rng.Intn(40))
		if rng.Intn(3) == 0 {
			tb.Withdraw(p)
		} else {
			tb.Announce(p, paths[rng.Intn(len(paths))])
		}
	}
	tb.ForEach(func(p netaddr.Prefix, _ []uint32) {}) // smoke: no corruption
	var all []netaddr.Prefix
	tb.ForEach(func(p netaddr.Prefix, _ []uint32) { all = append(all, p) })
	for _, p := range all {
		tb.Withdraw(p)
	}
	if tb.Len() != 0 {
		t.Fatalf("table not drained: %d", tb.Len())
	}
	if pool.Len() != 0 {
		t.Fatalf("pool leaks %d paths after drain", pool.Len())
	}
	for _, l := range tb.ActiveLinks() {
		t.Errorf("active link %v on empty table", l)
	}
}

// TestPoolConcurrentInternRelease hammers one pool from many
// goroutines interning, retaining and releasing a mix of overlapping
// and goroutine-private paths. Invariants: handles always resolve to
// the path that was interned (no slot aliasing through stale
// snapshots), refcounts never double-free (no panic), and the pool
// returns to empty once every reference is dropped.
func TestPoolConcurrentInternRelease(t *testing.T) {
	pool := NewPool()
	const goroutines = 8
	const rounds = 3000

	shared := [][]uint32{
		{2, 5, 6}, {2, 5, 6, 8}, {3, 6}, {2, 9, 6}, {4, 7, 9},
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			private := []uint32{100 + uint32(g), 200 + uint32(g), 300 + uint32(g)}
			var held []PathHandle
			for i := 0; i < rounds; i++ {
				var path []uint32
				if rng.Intn(3) == 0 {
					path = private
				} else {
					path = shared[rng.Intn(len(shared))]
				}
				h := pool.Intern(path)
				got := h.Path()
				if len(got) != len(path) {
					errs <- "interned path length mismatch"
					return
				}
				for j := range path {
					if got[j] != path[j] {
						errs <- "interned path content mismatch (stale snapshot aliasing)"
						return
					}
				}
				// Churn: hold some handles, release others right away,
				// and sometimes retain+release to exercise the
				// revive-vs-free race.
				switch rng.Intn(4) {
				case 0:
					held = append(held, h)
				case 1:
					pool.Retain(h, 2)
					pool.ReleaseN(h, 3)
				default:
					pool.Release(h)
				}
				if len(held) > 16 {
					pool.Release(held[0])
					held = held[1:]
				}
			}
			for _, h := range held {
				pool.Release(h)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if n := pool.Len(); n != 0 {
		t.Fatalf("pool leaks %d paths after concurrent churn", n)
	}
	st := pool.Stats()
	if st.Paths != 0 {
		t.Fatalf("Stats.Paths = %d, want 0", st.Paths)
	}
	if st.Links == 0 {
		t.Error("links must persist after churn")
	}
}

// TestPoolConcurrentTables runs per-goroutine tables against one shared
// pool — the fleet shape — and checks cross-table interning plus the
// leak baseline after every table drains.
func TestPoolConcurrentTables(t *testing.T) {
	pool := NewPool()
	const tables = 6
	var wg sync.WaitGroup
	for g := 0; g < tables; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			tb := NewWithPool(1, pool)
			paths := [][]uint32{
				{2, 5, 6}, {2, 5, 6, 8}, {3, 6}, {3, 6, 8}, {2, 9, 6},
			}
			for i := 0; i < 4000; i++ {
				p := netaddr.PrefixFor(uint32(2+rng.Intn(6)), rng.Intn(50))
				if rng.Intn(3) == 0 {
					tb.Withdraw(p)
				} else {
					tb.Announce(p, paths[rng.Intn(len(paths))])
				}
			}
			var all []netaddr.Prefix
			tb.ForEach(func(p netaddr.Prefix, _ []uint32) { all = append(all, p) })
			for _, p := range all {
				tb.Withdraw(p)
			}
			if tb.Len() != 0 {
				t.Error("table not drained")
			}
		}(g)
	}
	wg.Wait()
	if n := pool.Len(); n != 0 {
		t.Fatalf("pool leaks %d paths after all tables drained", n)
	}
}

// TestPoolStatsShardBalance checks the shard-balance view: distinct
// paths spread across shards, and the per-shard counts sum to the
// total.
func TestPoolStatsShardBalance(t *testing.T) {
	pool := NewPool()
	var held []PathHandle
	const n = 512
	for i := 0; i < n; i++ {
		held = append(held, pool.Intern([]uint32{2, 5, uint32(1000 + i)}))
	}
	st := pool.Stats()
	if st.Paths != n {
		t.Fatalf("Stats.Paths = %d, want %d", st.Paths, n)
	}
	sum, occupied := 0, 0
	for _, c := range st.ShardPaths {
		sum += c
		if c > 0 {
			occupied++
		}
	}
	if sum != n {
		t.Fatalf("shard counts sum to %d, want %d", sum, n)
	}
	if occupied < st.Shards()/2 {
		t.Errorf("only %d of %d shards occupied for %d distinct paths — degenerate shard hash", occupied, st.Shards(), n)
	}
	for _, h := range held {
		pool.Release(h)
	}
	if pool.Len() != 0 {
		t.Fatal("pool must drain")
	}
}

// TestLimboRevivesSameEntry is the flap contract: a path released to
// zero and interned again comes back under the same PathID, with the
// same canonical slice, whatever else happened in between short of a
// sweep.
func TestLimboRevivesSameEntry(t *testing.T) {
	pool := NewPool()
	path := []uint32{2, 5, 6, 8}
	h := pool.Intern(path)
	id, canon := h.ID(), h.Path()
	pool.Release(h)
	if pool.Len() != 0 {
		t.Fatalf("Len() = %d with the only reference released", pool.Len())
	}
	other := pool.Intern([]uint32{2, 5, 6, 9}) // a new path, possibly in the same shard
	h = pool.Intern(path)
	if h.ID() != id || &h.Path()[0] != &canon[0] {
		t.Errorf("revived as id %d (was %d), same canonical slice: %v", h.ID(), id, &h.Path()[0] == &canon[0])
	}
	if pool.Len() != 2 {
		t.Errorf("Len() = %d, want 2", pool.Len())
	}
	pool.Release(h)
	pool.Release(other)
	if pool.Sweep() != 2 || pool.Len() != 0 {
		t.Errorf("after sweep: Len() = %d, stats %+v", pool.Len(), pool.Stats())
	}
	// After the sweep the path is new again: its old canonical slice is
	// abandoned, not overwritten.
	h = pool.Intern(path)
	if &h.Path()[0] == &canon[0] {
		t.Error("a swept path was re-interned into its old slice")
	}
	if canon[3] != 8 {
		t.Errorf("old canonical slice overwritten: %v", canon)
	}
	pool.Release(h)
}

// TestInternReleaseCycleAllocs: once the pool knows a path, dropping
// its last reference and taking it again costs nothing.
func TestInternReleaseCycleAllocs(t *testing.T) {
	pool := NewPool()
	path := []uint32{2, 5, 6, 8}
	pool.Release(pool.Intern(path)) // warm: the entry exists and is published
	allocs := testing.AllocsPerRun(10_000, func() {
		pool.Release(pool.Intern(path))
	})
	if allocs != 0 {
		t.Errorf("intern→release of a known path allocates %v objects, want 0", allocs)
	}
}

// TestAnnounceFlapAllocs: one prefix alternating between two paths that
// carry nothing else — each announce drops one path's last reference
// and revives the other's — allocates nothing once warm.
func TestAnnounceFlapAllocs(t *testing.T) {
	tb := New(1)
	p := netaddr.PrefixFor(8, 0)
	a, b := []uint32{2, 5, 6}, []uint32{3, 7, 6}
	tb.Announce(p, a)
	tb.Announce(p, b)
	tb.Announce(p, a)
	allocs := testing.AllocsPerRun(5_000, func() {
		tb.Announce(p, b)
		tb.Announce(p, a)
	})
	if allocs != 0 {
		t.Errorf("flapping one prefix between two paths allocates %v objects per cycle, want 0", allocs)
	}
	if tb.Pool().Len() != 1 {
		t.Errorf("Len() = %d, want 1", tb.Pool().Len())
	}
}

// TestLimboBoundedAndSlotsRecycled releases far more paths than a
// shard's limbo holds: the aging sweep must keep limbo bounded, and a
// second wave of new paths must recycle dead slots instead of minting
// ids past the first wave's peak.
func TestLimboBoundedAndSlotsRecycled(t *testing.T) {
	pool := NewPool()
	const wave = 3 * limboMax * poolShards
	var maxID PathID
	held := make([]PathHandle, 0, wave)
	for i := 0; i < wave; i++ {
		h := pool.Intern([]uint32{2, 5, uint32(1_000_000 + i)})
		maxID = max(maxID, h.ID())
		held = append(held, h)
	}
	for _, h := range held {
		pool.Release(h)
	}
	st := pool.Stats()
	if st.Paths != 0 || st.Limbo > 2*(limboMax+1)*poolShards {
		t.Fatalf("after releasing %d paths: %d referenced, %d in limbo (bound %d)", wave, st.Paths, st.Limbo, 2*(limboMax+1)*poolShards)
	}
	if st.Limbo+st.FreeSlots != wave {
		t.Fatalf("%d in limbo + %d free slots != %d entries ever created", st.Limbo, st.FreeSlots, wave)
	}
	for i := 0; i < wave; i++ {
		h := pool.Intern([]uint32{3, 9, uint32(2_000_000 + i)})
		if h.ID() > maxID {
			t.Fatalf("new path %d minted id %d past the first wave's peak %d while dead slots were available", i, h.ID(), maxID)
		}
		pool.Release(h)
	}
}

// TestPoolStressWithSweeper is the concurrency contract: goroutines
// intern and release a small set of overlapping paths — so entries die
// and revive constantly — while another sweeps without pause. No handle
// may ever show another path's content (a slot reclaimed under a live
// reference), nothing may be over-released, and the referenced count
// must return to its baseline.
func TestPoolStressWithSweeper(t *testing.T) {
	pool := NewPool()
	const (
		workers = 8
		ops     = 1_000_000 / workers
	)
	paths := make([][]uint32, 64)
	for i := range paths {
		paths[i] = []uint32{uint32(2 + i%4), uint32(100 + i), uint32(200 + i/2)}
	}
	baseline := pool.Intern([]uint32{7, 7, 7})
	stop := make(chan struct{})
	swept := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				swept <- n
				return
			default:
				n += pool.Sweep()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			type holding struct {
				h    PathHandle
				path []uint32
			}
			var held []holding
			for i := 0; i < ops; i++ {
				path := paths[rng.Intn(len(paths))]
				h := pool.Intern(path)
				if !pathsEqual(h.Path(), path) {
					t.Errorf("interned %v, handle reads %v", path, h.Path())
					return
				}
				if rng.Intn(4) == 0 {
					held = append(held, holding{h, path})
				} else {
					pool.Release(h)
				}
				if len(held) > 8 {
					old := held[0]
					held = held[1:]
					if !pathsEqual(old.h.Path(), old.path) {
						t.Errorf("handle held on %v reads %v", old.path, old.h.Path())
						return
					}
					pool.Release(old.h)
				}
			}
			for _, old := range held {
				pool.Release(old.h)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	t.Logf("sweeper reclaimed %d entries during the run", <-swept)
	if n := pool.Len(); n != 1 {
		t.Fatalf("Len() = %d after the churn, want the 1 baseline path", n)
	}
	pool.Sweep()
	if st := pool.Stats(); st.Paths != 1 || st.Limbo != 0 {
		t.Fatalf("after a final sweep: %+v", st)
	}
	pool.Release(baseline)
}

// TestExportIgnoresLimbo: limbo entries are not part of a pool image, so
// Export → Restore → Export is the identity with or without them, and a
// restore window's PruneUnreferenced leaves ordinary limbo entries to
// the sweep.
func TestExportIgnoresLimbo(t *testing.T) {
	pool := NewPool()
	tb := NewWithPool(1, pool)
	for i := 0; i < 40; i++ {
		tb.Announce(netaddr.PrefixFor(8, i), []uint32{2, 5, uint32(100 + i%10)})
	}
	before := pool.Export()
	// Ten paths die and stay in limbo; ten others are referenced.
	for i := 0; i < 40; i++ {
		tb.Announce(netaddr.PrefixFor(8, i), []uint32{3, 6, uint32(200 + i%10)})
	}
	if st := pool.Stats(); st.Paths != 10 || st.Limbo != 10 {
		t.Fatalf("stats %+v, want 10 referenced and 10 in limbo", st)
	}
	img := pool.Export()
	if len(img.Paths) != 10 {
		t.Fatalf("image lists %d paths, want the 10 referenced ones", len(img.Paths))
	}
	for _, pi := range img.Paths {
		if pi.Path[0] != 3 {
			t.Fatalf("image lists limbo path %v", pi.Path)
		}
	}
	if len(before.Paths) != 10 || before.Paths[0].Path[0] != 2 {
		t.Fatalf("first image: %+v", before.Paths)
	}

	restored := NewPool()
	if err := restored.Restore(img); err != nil {
		t.Fatal(err)
	}
	rt := NewWithPool(1, restored)
	if err := rt.RestoreRoutes(tb.Export()); err != nil {
		t.Fatal(err)
	}
	// A path that dies inside the restore window is ordinary limbo:
	// pruning must not touch it (its slot is still queued for the sweep).
	h := restored.Intern([]uint32{9, 9, 9})
	restored.Release(h)
	if pruned := restored.PruneUnreferenced(); pruned != 0 {
		t.Errorf("pruned %d entries although every restored path is referenced", pruned)
	}
	if st := restored.Stats(); st.Paths != 10 || st.Limbo != 1 {
		t.Errorf("restored pool: %+v, want 10 referenced and 1 in limbo", st)
	}
	if again := restored.Export(); !reflect.DeepEqual(again, img) {
		t.Errorf("Export → Restore → Export is not the identity:\n%+v\n%+v", again, img)
	}
	// Restore needs a never-used pool; one holding nothing but a limbo
	// entry (no referenced path, no link) is not that.
	used := NewPool()
	used.Release(used.Intern([]uint32{5}))
	if err := used.Restore(img); err == nil {
		t.Error("Restore into a pool holding a limbo entry was accepted")
	}
}
