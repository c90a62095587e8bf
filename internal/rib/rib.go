// Package rib implements the per-session Adj-RIB-In a SWIFTED router
// maintains, built on an interning core: AS paths and AS links are
// deduplicated into a refcounted Pool of densely numbered entries
// (real tables carry far fewer unique paths than prefixes), each table
// groups its prefixes by path in a dense slice numbered by a
// table-local slot (so its size follows its own paths, not the pool's)
// and maps Prefix → slot, and the inverted link index the inference
// algorithm (W and P counters of §4.1) and the encoding algorithm
// (per-link prefix loads of §5) are built on collapses to dense
// per-LinkID counters. Prefix sets are
// materialized on demand — group by path, test the handful of inferred
// links against each unique path once, expand the matching groups —
// instead of being maintained for every link on every update.
//
// Reclamation contract. Pool.Len, Pool.Stats().Paths and Pool.Export
// count and list referenced paths only; a path whose last reference is
// released leaves them at once. Its entry, however, stays indexed under
// the same PathID ("limbo") so that a route flapping between two paths
// re-interns nothing, and its slot is reused only after the sweep has
// reclaimed it: when a new path needs a slot (dead slots are recycled
// oldest first before a fresh id is minted) or when a shard ages its
// limbo queue (every limboMax deaths), or on an explicit Pool.Sweep.
// Slices obtained from the pool (Table.Path, Table.Withdraw) are never
// overwritten, before or after the sweep.
package rib

import (
	"swift/internal/flatmap"
	"swift/internal/netaddr"
	"swift/internal/topology"
)

// routeRef locates one installed route: the table-local slot of its
// path group plus the prefix's position inside that group (for O(1)
// swap-removal). It is deliberately pointer-free — the routes map is
// the table's only O(prefixes) structure, and a pointer-free map is
// invisible to the garbage collector (the entry pointer lives in the
// O(paths) groups instead).
type routeRef struct {
	slot uint32
	idx  int32
}

// pathRoutes is one per-path prefix group. ent is the entry whose path
// the slot holds; the slice holds every prefix the table routes over
// that path. pos is the group's index in the table's live list while
// the group is non-empty, and its index in the free stack while it is
// empty. An emptied group keeps its array and its PathID mapping, so a
// path that comes back refills it in place; until then the slot sits on
// the free stack, where a group started on another path can take it,
// array and all.
type pathRoutes struct {
	ent      *pathEntry
	prefixes []netaddr.Prefix
	pos      int32
}

// Table is one BGP session's RIB with link counting. It is not
// concurrency-safe: the SWIFT engine owns one per session and serializes
// access (the paper runs inference per session precisely to enable this
// parallelism without sharing). The Pool behind it IS safe to share —
// a fleet of per-peer tables deduplicates overlapping paths through one
// pool.
type Table struct {
	localAS uint32
	pool    *Pool
	// routes is a flat open-addressing map: route lookup, install and
	// withdrawal are the three most-executed operations in a burst
	// cycle, and the flat probe is several times cheaper than a generic
	// map's. Pointer-free, so the GC never scans the table's only
	// O(prefixes) structure.
	routes flatmap.Map[netaddr.Prefix, routeRef]
	// groups holds the table's prefixes grouped by path, densely, one
	// slot per path the table routes over (or last routed over). slotOf
	// maps a pool-scoped PathID to its slot plus one (0: no slot); with
	// a fleet-shared pool it is sparse, 4 bytes per id the pool has
	// numbered, used or not — everything else the table keeps per path
	// scales with the table's own paths. Iteration never scans either:
	// livePaths lists the slots of the non-empty groups, keeping
	// per-path queries O(table paths) however many paths the rest of
	// the fleet interned.
	groups    []pathRoutes
	slotOf    []uint32
	livePaths []uint32
	// free stacks the slots of the empty groups, each with the array it
	// last held, most recently emptied last. A path without a slot takes
	// the top one before a new slot is grown, so a burst that moves
	// prefixes onto paths this table has never routed reuses the arrays
	// its withdrawals emptied instead of growing new ones. A slot whose
	// own path comes back leaves the stack at once.
	free []uint32
	// onLink is P(l, t) by LinkID: how many prefixes' current path
	// crosses the link (each prefix counted once per link).
	onLink []int32
	// firstLink caches the LinkID of (localAS, head) per first-hop AS —
	// the only per-table piece of a path's link decomposition. fastHead/
	// fastFirst is a one-entry inline cache in front of it: sessions see
	// long runs of the same neighbor, so most resolutions are two
	// compares instead of a map probe.
	firstLink map[uint32]LinkID
	fastHead  uint32
	fastFirst LinkID
	// sig is the order-independent content signature of the installed
	// routes: XOR over SigMix(prefix ^ path content hash) per route.
	// Equal signatures mean (up to 64-bit collision) the same
	// prefix→path assignment — the memo key that lets burst-end
	// re-provisioning skip recomputation when BGP reconverged onto the
	// provisioned state.
	sig uint64
	// onLinkChange, when set, is called once per link whose P(l, t)
	// counter moves (announce, withdraw, or replacement) — the hook the
	// inference tracker uses to keep its per-link Fit-Score inputs
	// incremental instead of rescanning every touched link per Infer.
	onLinkChange func(LinkID)
	// set is the scratch LinkSet behind the []topology.Link query
	// surface.
	set LinkSet
	// cacheSlot is a two-entry intern cache: the slots of the last
	// paths this table installed. Burst churn re-announces the same one or
	// two paths thousands of times in a row; when the cached path is
	// still live in this table, Announce takes a refcount instead of
	// re-keying the shared pool's intern map.
	cacheSlot [2]uint32
	cacheSet  [2]bool
}

// New returns an empty table for a session of localAS with a private
// pool.
func New(localAS uint32) *Table { return NewWithPool(localAS, NewPool()) }

// NewWithPool returns an empty table sharing pool — the fleet
// configuration, where per-peer tables announce overlapping paths and
// should store each once.
func NewWithPool(localAS uint32, pool *Pool) *Table {
	return &Table{
		localAS:   localAS,
		pool:      pool,
		firstLink: make(map[uint32]LinkID),
	}
}

// Pool returns the table's path/link pool.
func (t *Table) Pool() *Pool { return t.pool }

// LocalAS returns the AS that owns the table.
func (t *Table) LocalAS() uint32 { return t.localAS }

// Len returns the number of routed prefixes.
func (t *Table) Len() int { return t.routes.Len() }

// Path returns the current AS path for p (nil when absent). The slice
// is the pool's canonical copy: valid while the route stays installed,
// never mutated.
func (t *Table) Path(p netaddr.Prefix) []uint32 {
	ref, ok := t.routes.Get(p)
	if !ok {
		return nil
	}
	return t.groups[ref.slot].ent.path
}

// HandleOf returns a borrowed handle for p's current path. The handle
// is valid only while the route stays installed; callers needing it
// longer must Retain it.
func (t *Table) HandleOf(p netaddr.Prefix) (PathHandle, bool) {
	ref, ok := t.routes.Get(p)
	if !ok {
		return PathHandle{}, false
	}
	return PathHandle{t.groups[ref.slot].ent}, true
}

// PathLinks appends to dst the links of path as seen from the local AS:
// (local, n1), (n1, n2), ... Duplicate consecutive ASes (prepending) are
// skipped, as are self-loops. The output is positional (links[d-1] is
// the link at depth d), which is what the encoding layer's per-depth
// dictionaries key on.
func PathLinks(dst []topology.Link, localAS uint32, path []uint32) []topology.Link {
	prev := localAS
	for _, as := range path {
		if as == prev {
			continue // AS-path prepending
		}
		dst = append(dst, topology.MakeLink(prev, as))
		prev = as
	}
	return dst
}

// Links returns the links of p's current path (nil when absent).
func (t *Table) Links(p netaddr.Prefix) []topology.Link {
	path := t.Path(p)
	if path == nil {
		return nil
	}
	return PathLinks(nil, t.localAS, path)
}

// Announce installs or replaces the route for p, returning the previous
// path (nil if p was new). The path is interned: storage is canonical
// and never aliases the argument, so callers may reuse or mutate their
// buffer immediately. Re-announcing the current path is a near-free
// no-op.
func (t *Table) Announce(p netaddr.Prefix, path []uint32) (old []uint32) {
	ref, exists := t.routes.Get(p)
	if exists {
		e := t.groups[ref.slot].ent
		old = e.path
		if pathsEqual(old, path) {
			return old // refresh of the current route
		}
		t.removeRoute(p, ref)
		t.pool.Release(PathHandle{e})
	}
	h, ok := t.cachedIntern(path)
	if !ok {
		h = t.pool.Intern(path)
	}
	s := t.addRoute(p, h.e)
	if !ok {
		t.cacheSet[1], t.cacheSlot[1] = t.cacheSet[0], t.cacheSlot[0]
		t.cacheSet[0], t.cacheSlot[0] = true, s
	}
	return old
}

// cachedIntern resolves path against the two-entry install cache: when
// a cached slot still holds a live group whose path has the same
// content, the table already pins the entry, so taking one more
// reference is a plain refcount add — no pool map probe, no key
// build. Single-threaded like the rest of the table; liveness is
// guaranteed by the table's own references, never by pool internals.
func (t *Table) cachedIntern(path []uint32) (PathHandle, bool) {
	for i, set := range &t.cacheSet {
		if !set {
			continue
		}
		g := &t.groups[t.cacheSlot[i]] // groups never shrink
		if len(g.prefixes) > 0 && pathsEqual(g.ent.path, path) {
			h := PathHandle{g.ent}
			t.pool.Retain(h, 1)
			return h, true
		}
	}
	return PathHandle{}, false
}

func pathsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// Withdraw removes the route for p, returning the withdrawn path (nil
// if p was not routed). The returned slice is the canonical copy and
// stays intact even if this was the path's last reference.
func (t *Table) Withdraw(p netaddr.Prefix) (old []uint32) {
	h, ok := t.WithdrawHandle(p)
	if !ok {
		return nil
	}
	old = h.Path()
	t.pool.Release(h)
	return old
}

// WithdrawHandle removes the route for p and transfers the route's
// path reference to the caller, who must Release it (directly or via
// ReleaseHandle). The inference tracker uses this to keep withdrawn
// paths alive — and their PathIDs stable — for the duration of a burst
// without copying anything.
func (t *Table) WithdrawHandle(p netaddr.Prefix) (PathHandle, bool) {
	ref, ok := t.routes.Get(p)
	if !ok {
		return PathHandle{}, false
	}
	e := t.groups[ref.slot].ent
	t.removeRoute(p, ref)
	t.routes.Delete(p)
	return PathHandle{e}, true
}

// ReleaseHandle returns a previously transferred path reference.
func (t *Table) ReleaseHandle(h PathHandle) { t.pool.Release(h) }

// addRoute indexes a new route whose path reference the caller already
// holds; ownership of that reference moves to the table. It returns the
// route's slot.
func (t *Table) addRoute(p netaddr.Prefix, e *pathEntry) uint32 {
	var s uint32
	if int(e.id) < len(t.slotOf) && t.slotOf[e.id] != 0 {
		s = t.slotOf[e.id] - 1
	} else {
		s = t.newSlot(e.id)
	}
	g := &t.groups[s]
	g.ent = e
	if len(g.prefixes) == 0 {
		t.unfree(g)
		g.pos = int32(len(t.livePaths))
		t.livePaths = append(t.livePaths, s)
	}
	t.routes.Put(p, routeRef{slot: s, idx: int32(len(g.prefixes))})
	g.prefixes = append(g.prefixes, p)
	t.sig ^= SigMix(uint64(p) ^ e.hash)
	t.linkDelta(e, +1)
	return s
}

// removeRoute unindexes p (group membership and link counters) without
// touching the routes map entry or the path reference.
func (t *Table) removeRoute(p netaddr.Prefix, ref routeRef) {
	g := &t.groups[ref.slot]
	last := len(g.prefixes) - 1
	if int(ref.idx) != last {
		moved := g.prefixes[last]
		g.prefixes[ref.idx] = moved
		t.routes.Ptr(moved).idx = ref.idx
	}
	g.prefixes = g.prefixes[:last]
	if last == 0 {
		t.dropLivePath(g)
		t.pushFree(ref.slot, g)
	}
	t.sig ^= SigMix(uint64(p) ^ g.ent.hash)
	t.linkDelta(g.ent, -1)
}

// newSlot gives id, which has no slot, one: the most recently emptied
// slot (whose previous path loses its mapping), or a new one when no
// slot is free. The caller fills the group at once.
func (t *Table) newSlot(id PathID) uint32 {
	if int(id) >= len(t.slotOf) {
		grown := make([]uint32, int(id)+1+int(id)/8)
		copy(grown, t.slotOf)
		t.slotOf = grown
	}
	var s uint32
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
		if old := t.groups[s].ent; old != nil {
			t.slotOf[old.id] = 0
		}
	} else {
		s = uint32(len(t.groups))
		t.groups = append(t.groups, pathRoutes{})
	}
	t.groups[s].pos = -1
	t.slotOf[id] = s + 1
	return s
}

// pushFree puts an emptied group's slot on the free stack.
func (t *Table) pushFree(s uint32, g *pathRoutes) {
	g.pos = int32(len(t.free))
	t.free = append(t.free, s)
}

// unfree takes an empty group that is about to refill off the free
// stack; a slot newSlot just handed out is already off it (pos -1).
func (t *Table) unfree(g *pathRoutes) {
	if g.pos < 0 {
		return
	}
	end := len(t.free) - 1
	if int(g.pos) != end {
		moved := t.free[end]
		t.free[g.pos] = moved
		t.groups[moved].pos = g.pos
	}
	t.free = t.free[:end]
}

// dropLivePath swap-removes an emptied group from the live list.
func (t *Table) dropLivePath(g *pathRoutes) {
	end := len(t.livePaths) - 1
	if int(g.pos) != end {
		moved := t.livePaths[end]
		t.livePaths[g.pos] = moved
		t.groups[moved].pos = g.pos
	}
	t.livePaths = t.livePaths[:end]
}

// SetLinkObserver registers fn to be called once per link whose
// P(l, t) counter changes, on every route install or removal. One
// observer per table; nil unregisters. The callback runs synchronously
// on the update path and must be fast.
func (t *Table) SetLinkObserver(fn func(LinkID)) { t.onLinkChange = fn }

// linkDelta adjusts the per-link counters for one route across every
// link of its path (first-hop link plus deduplicated interior links).
func (t *Table) linkDelta(e *pathEntry, d int32) {
	first, hasFirst := t.firstLinkID(e)
	if hasFirst {
		t.growLinks(first)
		t.onLink[first] += d
		if t.onLinkChange != nil {
			t.onLinkChange(first)
		}
	}
	for _, id := range e.links {
		if hasFirst && id == first {
			continue // path revisits the local link; count once
		}
		t.growLinks(id)
		t.onLink[id] += d
		if t.onLinkChange != nil {
			t.onLinkChange(id)
		}
	}
}

func (t *Table) growLinks(id LinkID) {
	if int(id) >= len(t.onLink) {
		grown := make([]int32, int(id)+1+int(id)/2)
		copy(grown, t.onLink)
		t.onLink = grown
	}
}

// firstLinkID resolves the local first-hop link (localAS, head) of an
// entry through the per-table cache. ok is false for the empty path and
// for paths starting at the local AS (no local link to cross).
func (t *Table) firstLinkID(e *pathEntry) (LinkID, bool) {
	if len(e.path) == 0 {
		return 0, false
	}
	head := e.path[0]
	if head == t.localAS {
		return 0, false
	}
	if head == t.fastHead && head != 0 {
		return t.fastFirst, true
	}
	id, ok := t.firstLink[head]
	if !ok {
		id = t.pool.LinkID(topology.MakeLink(t.localAS, head))
		t.firstLink[head] = id
	}
	t.fastHead, t.fastFirst = head, id
	return id, true
}

// firstLinkIDRO is firstLinkID without any cache write — the variant
// concurrent readers (CountOnSetRange workers) must use, since the
// inline fastHead/fastFirst cache is single-writer state. A head the
// table has never cached resolves through the pool without creating an
// id: a link the pool has never numbered cannot be in any LinkSet, so
// (0, false) is the correct membership answer for it.
func (t *Table) firstLinkIDRO(e *pathEntry) (LinkID, bool) {
	if len(e.path) == 0 {
		return 0, false
	}
	head := e.path[0]
	if head == t.localAS {
		return 0, false
	}
	if id, ok := t.firstLink[head]; ok {
		return id, true
	}
	return t.pool.LookupLink(topology.MakeLink(t.localAS, head))
}

// Signature returns the table's order-independent route-content
// signature: two tables (or one table at two points in time) with the
// same prefix→path assignment have equal signatures, up to 64-bit hash
// collision. O(1) — maintained incrementally by every update.
func (t *Table) Signature() uint64 { return t.sig }

// AppendPathLinkIDs appends the dense link ids of h's path as seen from
// this table's local AS (first-hop link plus interior), deduplicated —
// each link once, matching the table's counter semantics.
func (t *Table) AppendPathLinkIDs(dst []LinkID, h PathHandle) []LinkID {
	first, hasFirst := t.firstLinkID(h.e)
	if hasFirst {
		dst = append(dst, first)
	}
	for _, id := range h.e.links {
		if hasFirst && id == first {
			continue
		}
		dst = append(dst, id)
	}
	return dst
}

// PathCrossesSet reports whether h's path (seen from this table's local
// AS) crosses any link in set.
func (t *Table) PathCrossesSet(h PathHandle, set *LinkSet) bool {
	if first, ok := t.firstLinkID(h.e); ok && set.Has(first) {
		return true
	}
	for _, id := range h.e.links {
		if set.Has(id) {
			return true
		}
	}
	return false
}

// OnLink returns the number of prefixes whose current path crosses l —
// the P(l, t) of §4.1 — as a dense counter read.
func (t *Table) OnLink(l topology.Link) int {
	id, ok := t.pool.LookupLink(l)
	if !ok {
		return 0
	}
	return t.OnLinkID(id)
}

// OnLinkID is OnLink keyed by dense id — the inference hot path, one
// array lookup.
func (t *Table) OnLinkID(id LinkID) int {
	if int(id) >= len(t.onLink) {
		return 0
	}
	return int(t.onLink[id])
}

// LinkByID returns the link named by id.
func (t *Table) LinkByID(id LinkID) topology.Link { return t.pool.LinkAt(id) }

// LookupLinkID returns the dense id of l without creating one.
func (t *Table) LookupLinkID(l topology.Link) (LinkID, bool) { return t.pool.LookupLink(l) }

// FillLinkSet resets set and fills it with the ids of links, skipping
// links the pool has never numbered (no path ever crossed them, so no
// table state mentions them either).
func (t *Table) FillLinkSet(set *LinkSet, links []topology.Link) {
	set.Reset()
	for _, l := range links {
		if id, ok := t.pool.LookupLink(l); ok {
			set.Add(id)
		}
	}
}

// CountOnSet returns the number of distinct prefixes whose current path
// crosses any link in set — |∪ P(l)| computed by testing each unique
// path once and summing group sizes, never touching per-prefix state.
func (t *Table) CountOnSet(set *LinkSet) int {
	if set.Len() == 0 {
		return 0
	}
	n := 0
	for _, s := range t.livePaths {
		g := &t.groups[s]
		if t.pathCrossesSetRO(g.ent, set) {
			n += len(g.prefixes)
		}
	}
	return n
}

// NumLivePaths returns the number of distinct paths currently carrying
// at least one prefix — the iteration domain of the per-path queries,
// which parallel callers split into CountOnSetRange spans.
func (t *Table) NumLivePaths() int { return len(t.livePaths) }

// CountOnSetRange is CountOnSet restricted to the live-path positions
// [lo, hi) — the shard of work one scoring worker takes. Ranges
// covering [0, NumLivePaths) sum to CountOnSet exactly. Strictly
// read-only (it bypasses the table's inline first-link cache): safe to
// run concurrently with other readers, but not with updates.
func (t *Table) CountOnSetRange(set *LinkSet, lo, hi int) int {
	n := 0
	for _, s := range t.livePaths[lo:hi] {
		g := &t.groups[s]
		if t.pathCrossesSetRO(g.ent, set) {
			n += len(g.prefixes)
		}
	}
	return n
}

// pathCrossesSetRO is PathCrossesSet on the read-only first-link
// resolution (see firstLinkIDRO).
func (t *Table) pathCrossesSetRO(e *pathEntry, set *LinkSet) bool {
	if first, ok := t.firstLinkIDRO(e); ok && set.Has(first) {
		return true
	}
	for _, id := range e.links {
		if set.Has(id) {
			return true
		}
	}
	return false
}

// AppendPrefixesOnSet appends every prefix whose current path crosses
// any link in set — materialization on demand, group by path then
// expand. Each prefix appears exactly once; the order is unspecified.
func (t *Table) AppendPrefixesOnSet(dst []netaddr.Prefix, set *LinkSet) []netaddr.Prefix {
	if set.Len() == 0 {
		return dst
	}
	for _, s := range t.livePaths {
		g := &t.groups[s]
		if t.pathCrossesSetRO(g.ent, set) {
			dst = append(dst, g.prefixes...)
		}
	}
	return dst
}

// PrefixesOnAny returns the sorted union of prefixes across the given
// links — the set SWIFT reroutes after inferring that those links
// failed. Group-by-path materialization yields each prefix once, so the
// union is append + sort + in-place dedup with no set allocation.
func (t *Table) PrefixesOnAny(links []topology.Link) []netaddr.Prefix {
	t.FillLinkSet(&t.set, links)
	out := t.AppendPrefixesOnSet(make([]netaddr.Prefix, 0, 64), &t.set)
	netaddr.Sort(out)
	return netaddr.DedupSorted(out)
}

// ForEach calls fn for every (prefix, path) pair. Iteration order is
// unspecified; fn must not mutate the table.
func (t *Table) ForEach(fn func(p netaddr.Prefix, path []uint32)) {
	t.routes.ForEach(func(p netaddr.Prefix, ref routeRef) {
		fn(p, t.groups[ref.slot].ent.path)
	})
}

// ForEachPath calls fn once per unique path with the group of prefixes
// currently routed over it — the shape provisioning-time consumers
// (reroute planning, tag encoding) want, since per-path work is done
// once instead of once per prefix. fn must not mutate the table or
// retain either slice.
func (t *Table) ForEachPath(fn func(path []uint32, prefixes []netaddr.Prefix)) {
	for _, s := range t.livePaths {
		g := &t.groups[s]
		fn(g.ent.path, g.prefixes)
	}
}

// Clone returns a deep copy of the table sharing the same pool (paths
// are interned, so the clone retains one reference per copied route).
// The encoding layer snapshots the RIB this way before recomputing
// tags. Only the live groups are copied: they keep their slots, so the
// copied routes map stays valid, and the clone's other slots start
// empty, without arrays, on its free stack.
func (t *Table) Clone() *Table {
	out := NewWithPool(t.localAS, t.pool)
	out.routes = t.routes.Clone()
	out.groups = make([]pathRoutes, len(t.groups))
	out.slotOf = make([]uint32, len(t.slotOf))
	for _, s := range t.livePaths {
		g := &t.groups[s]
		out.groups[s] = pathRoutes{
			ent:      g.ent,
			prefixes: append([]netaddr.Prefix(nil), g.prefixes...),
			pos:      g.pos,
		}
		out.slotOf[g.ent.id] = s + 1
		t.pool.Retain(PathHandle{g.ent}, len(g.prefixes))
	}
	for s := range out.groups {
		if g := &out.groups[s]; g.ent == nil {
			out.pushFree(uint32(s), g)
		}
	}
	out.livePaths = append([]uint32(nil), t.livePaths...)
	out.onLink = append([]int32(nil), t.onLink...)
	for head, id := range t.firstLink {
		out.firstLink[head] = id
	}
	out.sig = t.sig
	return out
}

// Release drops every route, returning the table's path references to
// the pool. A released table is empty and reusable; clones that are
// done being inspected should be released so pooled paths can be
// freed.
func (t *Table) Release() {
	for _, s := range t.livePaths {
		g := &t.groups[s]
		t.pool.ReleaseN(PathHandle{g.ent}, len(g.prefixes))
		g.prefixes = g.prefixes[:0]
		t.pushFree(s, g)
	}
	t.livePaths = t.livePaths[:0]
	t.routes.Clear()
	t.cacheSet = [2]bool{}
	for i := range t.onLink {
		t.onLink[i] = 0
	}
	t.sig = 0
}
