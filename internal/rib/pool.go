package rib

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"swift/internal/topology"
)

// PathID is a dense identifier for one canonical interned AS path.
// IDs are pool-scoped: every Table sharing a Pool agrees on them, which
// is what lets per-table state (prefix groups, counters) live in plain
// slices indexed by PathID. ID 0 is reserved and never names a path.
//
// The pool is sharded; the low poolShardBits of an id name the shard
// that owns the path, the rest is the shard-local slot. IDs therefore
// stay dense up to a small constant factor (the shard imbalance), which
// is all per-table slice indexing needs.
type PathID uint32

// LinkID is a dense identifier for one AS link. Like PathID it is
// pool-scoped, so per-link counters are array lookups instead of map
// probes. ID 0 is reserved; links are never freed (their cardinality is
// bounded by the topology, not the table size).
type LinkID uint32

const (
	// poolShardBits sizes the intern shard count. 16 shards keep a
	// fleet of per-peer sessions from serializing behind one lock while
	// adding at most 4 bits of PathID sparsity.
	poolShardBits = 4
	poolShards    = 1 << poolShardBits
	poolShardMask = poolShards - 1

	// pathKeyStack is the stack budget for building probe keys (4 bytes
	// per AS hop). Longer paths fall back to a heap append — they are
	// beyond any plausible AS path already.
	pathKeyStack = 256

	// limboMax is how many paths may drop to zero references in one shard
	// before the shard ages its limbo: what died a generation ago and is
	// still dead is reclaimed, what died since becomes the old
	// generation. A shard thus holds at most about two generations of
	// unreferenced paths, a few hundred KiB.
	limboMax = 1024

	// reclaimed is the refs value of an entry the sweep has claimed: far
	// enough below zero that no acquire can succeed and an over-release
	// still reads negative.
	reclaimed = math.MinInt32 / 2
)

// pathEntry is one canonical interned path. The path, hash and links
// fields are written under the owning shard's lock while refs is
// reclaimed — before any handle escapes — and never mutated while refs
// is zero or more, so holders may read them without locking.
//
// refs is the whole life cycle. Positive: referenced. Zero: in limbo —
// nobody holds the path, but the entry keeps its index slot, its id, its
// key and its link list, and the next Intern of the same path revives it
// with one compare-and-swap. reclaimed: the sweep claimed the entry (one
// compare-and-swap from zero, so it cannot race a revival), unindexed it
// and queued its slot for another path.
type pathEntry struct {
	id   PathID
	refs atomic.Int32
	// queued is set while the entry sits in its shard's limbo queue and
	// nextDead links it there; whoever flips queued to true owns
	// nextDead until the sweep pops the entry.
	queued   atomic.Bool
	nextDead *pathEntry
	// path is the canonical AS sequence (neighbor first). It is dropped
	// (not recycled) when the entry is reclaimed, so slices handed out
	// while the entry was live can never be overwritten by a later intern.
	path []uint32
	// hash is a 64-bit content hash of path, computed once at intern.
	// Tables fold it into their route signature — content-addressed, so
	// PathID slot recycling cannot alias two different paths.
	hash uint64
	// links are the path's interior AS links — MakeLink over consecutive
	// distinct ASes of path, deduplicated — as dense IDs. The local
	// first-hop link (localAS, path[0]) is per-table (tables differ in
	// localAS) and therefore not part of the shared entry; Table
	// resolves it through its firstLink cache.
	links []LinkID
}

// acquire takes one reference unless the sweep has claimed the entry,
// and reports whether that revived it from limbo. It is the lock-free
// half of the read-mostly intern.
func (e *pathEntry) acquire() (revived, ok bool) {
	for {
		r := e.refs.Load()
		if r < 0 {
			return false, false
		}
		if e.refs.CompareAndSwap(r, r+1) {
			return r == 0, true
		}
	}
}

// PathHandle is a borrowed or owned reference to an interned path.
// Handles returned by Pool.Intern and Table.WithdrawHandle own one
// reference and must be released exactly once; handles returned by
// Table.HandleOf borrow the table's reference and are valid only while
// the route stays installed.
type PathHandle struct{ e *pathEntry }

// Valid reports whether the handle names a path.
func (h PathHandle) Valid() bool { return h.e != nil }

// ID returns the dense path identifier.
func (h PathHandle) ID() PathID { return h.e.id }

// Path returns the canonical AS path. The slice is owned by the pool
// and immutable while the handle's reference is held.
func (h PathHandle) Path() []uint32 { return h.e.path }

// poolShard is one intern stripe. byKey is the authoritative index,
// guarded by mu; snap is a read-mostly copy published for lock-free
// probes and refreshed by the publication policy below. Both hold
// referenced and limbo entries alike. The pad keeps neighboring shards'
// hot state off one cache line.
type poolShard struct {
	mu    sync.Mutex
	byKey map[string]*pathEntry
	snap  atomic.Pointer[map[string]*pathEntry]
	// dirty counts mutations (inserts + reclaims) since the last publish;
	// misses counts locked probes that found an entry the snapshot does
	// not have yet. Either crossing its threshold triggers a republish.
	dirty  int
	misses int
	free   []*pathEntry
	next   uint32 // next fresh shard-local slot
	// live counts referenced paths. It moves on every 0↔1 transition of
	// an entry's refs, by whoever made the transition, without the lock.
	live atomic.Int64
	// The limbo queue, two generations. dead is a lock-free stack of the
	// entries that dropped to zero since the last aging (nDead of them);
	// old[oldHead:] is the generation before, oldest first, guarded by
	// mu. An entry stays queued across revivals, so its place reflects
	// its first death; the sweep skips whatever is referenced when its
	// turn comes.
	dead    atomic.Pointer[pathEntry]
	nDead   atomic.Int32
	old     []*pathEntry
	oldHead int
	_       [24]byte
}

// promote makes the young generation the old one. Caller holds mu and
// has used the old one up.
func (s *poolShard) promote() {
	s.old, s.oldHead = s.old[:0], 0
	for e := s.dead.Swap(nil); e != nil; e = e.nextDead {
		s.old = append(s.old, e)
	}
	s.nDead.Store(0)
	slices.Reverse(s.old) // the stack is newest first
}

// reclaimOldest pops the oldest queued entry, promoting the young
// generation once the old one is used up, and frees its slot if it is
// still dead. An entry revived since it was queued is only dropped from
// the queue: clearing queued before the claim means its next release
// queues it again. ok is false when nothing was queued. Caller holds mu.
func (s *poolShard) reclaimOldest() (freed, ok bool) {
	if s.oldHead == len(s.old) {
		if s.dead.Load() == nil {
			return false, false
		}
		s.promote()
	}
	e := s.old[s.oldHead]
	s.old[s.oldHead] = nil
	s.oldHead++
	e.queued.Store(false)
	if !e.refs.CompareAndSwap(0, reclaimed) {
		return false, true
	}
	s.unindex(e)
	return true, true
}

// unindex drops a claimed entry from the index and queues its slot for
// reuse. The canonical path slice is abandoned to the garbage collector
// so previously returned slices stay intact. Caller holds mu.
func (s *poolShard) unindex(e *pathEntry) {
	var stack [pathKeyStack]byte
	delete(s.byKey, string(appendPathKey(stack[:0], e.path)))
	e.path = nil
	s.free = append(s.free, e)
	s.dirty++
}

// publishLocked decides whether the mutation pressure warrants cloning
// the authoritative map into a fresh snapshot. Tiny shards republish on
// every mutation (the clone is trivial); everything else amortizes the
// O(n) clone over n/8 mutations — sustained churn costs O(1) amortized
// per operation — with the miss counter short-circuiting when a
// not-yet-published path turns hot on the locked probe path.
func (s *poolShard) publishLocked(force bool) {
	n := len(s.byKey)
	if !force && n > 64 && s.dirty*8 < n && s.misses < 16 {
		return
	}
	m := make(map[string]*pathEntry, n)
	for k, e := range s.byKey {
		m[k] = e
	}
	s.snap.Store(&m)
	s.dirty = 0
	s.misses = 0
}

// Pool deduplicates AS paths and AS links into refcounted, densely
// numbered entries. Real tables carry far fewer unique paths than
// prefixes, so one Pool shared across a fleet of per-peer tables stores
// each path once regardless of how many prefixes — on how many peers —
// announce it.
//
// The pool is built for concurrent fleets: paths are sharded by a hash
// of their content, interning an already-known path is lock-free (a
// published-snapshot probe plus one refcount CAS), and retain/release
// never lock. Entry contents reachable through a held PathHandle are
// immutable and may be read without any synchronization; the link table
// is an append-only array published by atomic snapshot, so LinkAt never
// locks either.
//
// Reclamation tolerates flaps. A path whose last reference goes is not
// freed: it waits in limbo, indexed and intact, and an Intern of the
// same path brings back the same entry under the same PathID — which is
// what lets everything keyed by PathID (a table's prefix groups, the
// inference tracker's withdrawal groups) keep its capacity while a
// path's last prefix moves away and comes back. Limbo entries are
// reclaimed oldest first, in two cases: a new path needs a slot (a dead
// slot is recycled before a fresh id is minted, so ids stay as dense as
// the peak number of referenced paths), or a shard has seen limboMax
// deaths since it last aged its queue. Len, Stats().Paths and Export
// count referenced paths only.
type Pool struct {
	shards [poolShards]poolShard

	linkMu   sync.RWMutex
	linkIDs  map[topology.Link]LinkID
	links    []topology.Link // append-only backing; linkSnap publishes it
	linkSnap atomic.Pointer[[]topology.Link]

	// restoreIdx maps dense ids to entries during a snapshot-restore
	// window (Restore sets it, PruneUnreferenced clears it); tables
	// rebuilt from images resolve their PathIDs through it. Single
	// restoring goroutine only.
	restoreIdx map[PathID]*pathEntry
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	p := &Pool{linkIDs: make(map[topology.Link]LinkID)}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.byKey = make(map[string]*pathEntry)
		empty := make(map[string]*pathEntry)
		sh.snap.Store(&empty)
	}
	p.shards[0].next = 1 // PathID 0 is reserved
	p.links = make([]topology.Link, 1, 64)
	snap := p.links
	p.linkSnap.Store(&snap)
	return p
}

// appendPathKey encodes path into dst (4 little-endian bytes per hop).
func appendPathKey(dst []byte, path []uint32) []byte {
	for _, as := range path {
		dst = append(dst, byte(as), byte(as>>8), byte(as>>16), byte(as>>24))
	}
	return dst
}

// fnv64 is FNV-1a over the probe key — the path content hash stored on
// every entry.
func fnv64(b []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// SigMix is the signature finalizer (splitmix64): tables and engines
// fold per-route and per-table hashes through it so XOR accumulation
// stays collision-resistant under real update streams.
func SigMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shardOfPath hashes path content to its owning shard (FNV-1a over the
// hops, one round per AS).
func shardOfPath(path []uint32) uint32 {
	h := uint32(2166136261)
	for _, as := range path {
		h = (h ^ as) * 16777619
	}
	return h & poolShardMask
}

// Intern returns an owned handle for the canonical copy of path,
// creating the entry on first sight. Interning an already-known path —
// referenced or in limbo — is lock-free: a snapshot probe plus one
// refcount CAS, so concurrent sessions announcing overlapping paths do
// not serialize. It is also allocation-free: the probe key is built on
// the stack and the canonical copy is shared. The caller's slice is
// never retained — callers may reuse or mutate it freely afterwards.
func (p *Pool) Intern(path []uint32) PathHandle {
	var stack [pathKeyStack]byte
	key := appendPathKey(stack[:0], path)
	si := shardOfPath(path)
	sh := &p.shards[si]
	if e, ok := (*sh.snap.Load())[string(key)]; ok {
		if revived, ok := e.acquire(); ok {
			if revived {
				sh.live.Add(1)
			}
			// The snapshot may be stale: the slot could have been
			// reclaimed and re-interned as a different path since it was
			// published. Validate the content; on mismatch undo the
			// acquire and take the locked path.
			if pathsEqual(e.path, path) {
				return PathHandle{e}
			}
			p.ReleaseN(PathHandle{e}, 1)
		}
	}
	return p.internSlow(si, key, path)
}

func (p *Pool) internSlow(si uint32, key []byte, path []uint32) PathHandle {
	sh := &p.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.byKey[string(key)]; ok {
		// An indexed entry cannot be claimed while we hold the lock, so
		// a plain increment is safe; from zero it is a revival.
		if e.refs.Add(1) == 1 {
			sh.live.Add(1)
		}
		sh.misses++
		sh.publishLocked(false)
		return PathHandle{e}
	}
	// A dead slot is recycled before a fresh id is minted: ids index
	// per-table slices, and every id minted grows all of them.
	for ok := true; ok && len(sh.free) == 0; {
		_, ok = sh.reclaimOldest()
	}
	var e *pathEntry
	if n := len(sh.free); n > 0 {
		e = sh.free[n-1]
		sh.free = sh.free[:n-1]
	} else {
		e = &pathEntry{id: PathID(sh.next<<poolShardBits) | PathID(si)}
		sh.next++
	}
	// Content first, refcount last: a lock-free prober holding a stale
	// snapshot that still maps some key to this recycled slot gates on
	// acquire() — publishing refs only after path/hash/links are written
	// means a successful acquire can never observe a half-built entry.
	e.path = append([]uint32(nil), path...)
	e.hash = fnv64(key)
	e.links = p.interiorLinks(e.links[:0], e.path)
	e.refs.Store(1)
	sh.byKey[string(key)] = e
	sh.live.Add(1)
	sh.dirty++
	sh.publishLocked(false)
	return PathHandle{e}
}

// Retain adds n references to the handle's entry (Clone bulk-retains
// one per copied route). Lock-free: the caller already holds a
// reference, so the entry cannot be reclaimed concurrently.
func (p *Pool) Retain(h PathHandle, n int) {
	h.e.refs.Add(int32(n))
}

// Release drops one reference.
func (p *Pool) Release(h PathHandle) { p.ReleaseN(h, 1) }

// ReleaseN drops n references at once (Table.Release bulk-returns one
// per dropped route). When the last reference goes the entry enters
// limbo (see Pool): it is queued for the sweep, lock-free, and stays
// revivable until the sweep reaches it. Only the release that fills a
// shard's young generation takes the lock, to age the queue.
func (p *Pool) ReleaseN(h PathHandle, n int) {
	e := h.e
	r := e.refs.Add(int32(-n))
	if r > 0 {
		return
	}
	if r < 0 {
		panic("rib: path over-released")
	}
	sh := &p.shards[e.id&poolShardMask]
	sh.live.Add(-1)
	if !e.queued.CompareAndSwap(false, true) {
		return // still queued from an earlier death
	}
	for {
		head := sh.dead.Load()
		e.nextDead = head
		if sh.dead.CompareAndSwap(head, e) {
			break
		}
	}
	if sh.nDead.Add(1) > limboMax {
		sh.mu.Lock()
		if sh.nDead.Load() > limboMax { // else another release aged it first
			for sh.oldHead < len(sh.old) {
				sh.reclaimOldest()
			}
			sh.promote()
			sh.publishLocked(false)
		}
		sh.mu.Unlock()
	}
}

// Sweep reclaims every path currently in limbo and returns how many.
// The pool never needs it — limbo is bounded — but a caller about to
// measure memory, or a test pinning the reclamation contract, can ask.
func (p *Pool) Sweep() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for freed, ok := sh.reclaimOldest(); ok; freed, ok = sh.reclaimOldest() {
			if freed {
				n++
			}
		}
		sh.publishLocked(false)
		sh.mu.Unlock()
	}
	return n
}

// interiorLinks appends the deduplicated interior links of path:
// MakeLink over consecutive distinct ASes, skipping prepending runs.
func (p *Pool) interiorLinks(dst []LinkID, path []uint32) []LinkID {
	if len(path) == 0 {
		return dst
	}
	prev := path[0]
	for _, as := range path[1:] {
		if as == prev {
			continue // AS-path prepending
		}
		id := p.LinkID(topology.MakeLink(prev, as))
		prev = as
		if !containsLinkID(dst, id) {
			dst = append(dst, id)
		}
	}
	return dst
}

func containsLinkID(ids []LinkID, id LinkID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// LinkID returns (creating if needed) the dense id of l. The known-link
// path takes a read lock only.
func (p *Pool) LinkID(l topology.Link) LinkID {
	p.linkMu.RLock()
	id, ok := p.linkIDs[l]
	p.linkMu.RUnlock()
	if ok {
		return id
	}
	return p.linkIDSlow(l)
}

func (p *Pool) linkIDSlow(l topology.Link) LinkID {
	p.linkMu.Lock()
	defer p.linkMu.Unlock()
	if id, ok := p.linkIDs[l]; ok {
		return id
	}
	if len(p.links) == cap(p.links) {
		// Grow into a fresh backing array; snapshots handed out earlier
		// keep reading the old one.
		grown := make([]topology.Link, len(p.links), 2*cap(p.links))
		copy(grown, p.links)
		p.links = grown
	}
	id := LinkID(len(p.links))
	p.links = append(p.links, l)
	p.linkIDs[l] = id
	// Publish a header with the new length. In-place appends are safe:
	// older snapshots have a shorter len over the same backing, and the
	// element write happens-before the snapshot store.
	snap := p.links
	p.linkSnap.Store(&snap)
	return id
}

// LookupLink returns the dense id of l without creating one.
func (p *Pool) LookupLink(l topology.Link) (LinkID, bool) {
	p.linkMu.RLock()
	id, ok := p.linkIDs[l]
	p.linkMu.RUnlock()
	return id, ok
}

// LinkAt returns the link named by id (the zero Link for id 0 or out of
// range). Lock-free: it reads the published link-array snapshot.
func (p *Pool) LinkAt(id LinkID) topology.Link {
	snap := *p.linkSnap.Load()
	if int(id) >= len(snap) {
		return topology.Link{}
	}
	return snap[id]
}

// Len returns the number of referenced paths — the leak-check
// observable: after every route referencing a path is withdrawn and
// every tracker reset, Len returns to its baseline, whatever still
// waits in limbo.
func (p *Pool) Len() int {
	n := 0
	for i := range p.shards {
		n += int(p.shards[i].live.Load())
	}
	return n
}

// NumLinks returns how many distinct links the pool has numbered.
// Links are never freed.
func (p *Pool) NumLinks() int {
	return len(*p.linkSnap.Load()) - 1
}

// PoolStats summarizes a pool's occupancy for memory accounting and
// shard-balance inspection.
type PoolStats struct {
	// Paths is the referenced path count.
	Paths int
	// Limbo is how many unreferenced paths are still indexed, awaiting
	// revival or the sweep.
	Limbo int
	// FreeSlots is how many reclaimed entry slots await reuse.
	FreeSlots int
	// Links is the numbered link count (never shrinks).
	Links int
	// ShardPaths is the live path count per intern shard — the
	// load-balance view. A heavily skewed distribution means the shard
	// hash is degenerate for the workload and interning is serializing
	// again.
	ShardPaths [poolShards]int
}

// Shards returns the pool's shard count.
func (PoolStats) Shards() int { return poolShards }

// MaxShardPaths returns the most-loaded shard's live path count. With
// Paths/Shards() as the mean, max/mean is the imbalance factor the ops
// plane exports: near 1 means interning is spreading, far above 1 means
// the shard hash has gone degenerate for the workload and the pool is
// serializing again.
func (st PoolStats) MaxShardPaths() int {
	m := 0
	for _, n := range st.ShardPaths {
		if n > m {
			m = n
		}
	}
	return m
}

// Stats snapshots the pool. Shards are locked one at a time, so the
// snapshot is per-shard consistent but not a global atomic cut.
func (p *Pool) Stats() PoolStats {
	var st PoolStats
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		st.ShardPaths[i] = int(sh.live.Load())
		st.Paths += st.ShardPaths[i]
		st.Limbo += len(sh.byKey) - st.ShardPaths[i]
		st.FreeSlots += len(sh.free)
		sh.mu.Unlock()
	}
	st.Links = p.NumLinks()
	return st
}

// LinkSet is a reusable dense membership set over LinkIDs — the shape
// the inference layer passes to the union/materialization queries so a
// path's links test against an inferred set by array lookup.
type LinkSet struct {
	mark []bool
	ids  []LinkID
}

// Reset empties the set, keeping capacity.
func (s *LinkSet) Reset() {
	for _, id := range s.ids {
		s.mark[id] = false
	}
	s.ids = s.ids[:0]
}

// Add inserts id.
func (s *LinkSet) Add(id LinkID) {
	if int(id) >= len(s.mark) {
		grown := make([]bool, int(id)+1)
		copy(grown, s.mark)
		s.mark = grown
	}
	if !s.mark[id] {
		s.mark[id] = true
		s.ids = append(s.ids, id)
	}
}

// Has reports membership.
func (s *LinkSet) Has(id LinkID) bool {
	return int(id) < len(s.mark) && s.mark[id]
}

// Len returns the member count.
func (s *LinkSet) Len() int { return len(s.ids) }
