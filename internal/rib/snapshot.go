package rib

import (
	"fmt"
	"sort"

	"swift/internal/netaddr"
	"swift/internal/topology"
)

// This file is the RIB half of the warm-restart path: the pool and the
// per-session tables export their steady state into plain canonical
// images, and an empty pool/table rebuilds from them reusing the
// original dense PathIDs and LinkIDs — no re-interning, so every
// per-PathID slice, per-LinkID counter, compiled scheme and provisioned
// FIB restored alongside stays valid verbatim.
//
// Images are canonical: slices are sorted by their dense id (paths,
// links) or by prefix (routes), so exporting the same logical state
// twice yields identical images however the underlying maps happened
// to iterate. That is what lets the snapshot round-trip test demand
// byte-identical re-serialization.

// PathImage is one interned path pinned to its original dense id.
type PathImage struct {
	ID   PathID
	Path []uint32
}

// PoolImage is the interned state of a Pool: the append-only link
// numbering (Links[0] is the reserved zero link) and every referenced
// path with its dense id, ascending. Paths in limbo are not part of it.
type PoolImage struct {
	Links []topology.Link
	Paths []PathImage
}

// Export captures the pool's referenced paths and link numbering. Shards are
// locked one at a time; callers wanting a consistent cut must quiesce
// writers first (the fleet snapshot path holds every peer lock).
func (p *Pool) Export() PoolImage {
	links := *p.linkSnap.Load()
	img := PoolImage{Links: append([]topology.Link(nil), links...)}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, e := range sh.byKey {
			if e.refs.Load() > 0 {
				img.Paths = append(img.Paths, PathImage{ID: e.id, Path: append([]uint32(nil), e.path...)})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(img.Paths, func(i, j int) bool { return img.Paths[i].ID < img.Paths[j].ID })
	return img
}

// Restore rebuilds a never-used pool from img, placing every path at its
// original dense id, unreferenced, and numbering links in their original
// order. Tables restored afterwards look entries up through the
// transient restore index and take their references; a final
// PruneUnreferenced drops whatever no table claimed and closes the
// restore window.
func (p *Pool) Restore(img PoolImage) error {
	if st := p.Stats(); st.Paths+st.Limbo+st.FreeSlots+st.Links != 0 {
		return fmt.Errorf("rib: restore into a used pool (%d paths, %d in limbo, %d free slots, %d links)",
			st.Paths, st.Limbo, st.FreeSlots, st.Links)
	}
	if len(img.Links) > 0 && img.Links[0] != (topology.Link{}) {
		return fmt.Errorf("rib: restore: link 0 is not the reserved zero link")
	}
	for i := 1; i < len(img.Links); i++ {
		if id := p.LinkID(img.Links[i]); id != LinkID(i) {
			return fmt.Errorf("rib: restore: link %v numbered %d, want %d (duplicate link in image?)",
				img.Links[i], id, i)
		}
	}
	p.restoreIdx = make(map[PathID]*pathEntry, len(img.Paths))
	var prev PathID
	for n, pi := range img.Paths {
		if pi.ID == 0 {
			return fmt.Errorf("rib: restore: path image uses reserved id 0")
		}
		if n > 0 && pi.ID <= prev {
			return fmt.Errorf("rib: restore: path ids not strictly ascending at %d", pi.ID)
		}
		prev = pi.ID
		si := uint32(pi.ID) & poolShardMask
		if shardOfPath(pi.Path) != si {
			return fmt.Errorf("rib: restore: path id %d not in its content shard", pi.ID)
		}
		var stack [pathKeyStack]byte
		key := appendPathKey(stack[:0], pi.Path)
		sh := &p.shards[si]
		sh.mu.Lock()
		if _, dup := sh.byKey[string(key)]; dup {
			sh.mu.Unlock()
			return fmt.Errorf("rib: restore: duplicate path content at id %d", pi.ID)
		}
		e := &pathEntry{id: pi.ID}
		e.path = append([]uint32(nil), pi.Path...)
		e.hash = fnv64(key)
		e.links = p.interiorLinks(nil, e.path)
		sh.byKey[string(key)] = e
		sh.dirty++
		if slot := uint32(pi.ID) >> poolShardBits; slot >= sh.next {
			sh.next = slot + 1
		}
		sh.mu.Unlock()
		p.restoreIdx[pi.ID] = e
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.publishLocked(true)
		sh.mu.Unlock()
	}
	return nil
}

// claimRestored resolves a dense id through the restore index and takes
// one reference on the entry — only valid between Restore and
// PruneUnreferenced.
func (p *Pool) claimRestored(id PathID) (*pathEntry, bool) {
	e, ok := p.restoreIdx[id]
	if ok && e.refs.Add(1) == 1 {
		p.shards[id&poolShardMask].live.Add(1)
	}
	return e, ok
}

// PruneUnreferenced ends a restore window: every restored entry no
// table claimed a reference on is reclaimed (its slot queued for reuse),
// and the restore index is dropped. Returns the number pruned. Restored
// entries were never queued for the sweep, so this is the one place
// that frees them; ordinary limbo entries are not its business.
func (p *Pool) PruneUnreferenced() int {
	n := 0
	for _, e := range p.restoreIdx {
		sh := &p.shards[e.id&poolShardMask]
		sh.mu.Lock()
		if e.refs.CompareAndSwap(0, reclaimed) {
			sh.unindex(e)
			n++
		}
		sh.mu.Unlock()
	}
	p.restoreIdx = nil
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.publishLocked(true)
		sh.mu.Unlock()
	}
	return n
}

// RouteImage is one installed route by dense path id.
type RouteImage struct {
	Prefix netaddr.Prefix
	Path   PathID
}

// TableImage is a session table's routes, ascending by prefix. The
// per-path groups, link counters and content signature are derivable
// and rebuilt on restore.
type TableImage struct {
	LocalAS uint32
	Routes  []RouteImage
}

// Export captures the table's installed routes. Not concurrency-safe;
// the caller owns the table like any other accessor.
func (t *Table) Export() TableImage {
	img := TableImage{LocalAS: t.localAS, Routes: make([]RouteImage, 0, t.routes.Len())}
	t.routes.ForEach(func(p netaddr.Prefix, ref routeRef) {
		img.Routes = append(img.Routes, RouteImage{Prefix: p, Path: ref.pid})
	})
	sort.Slice(img.Routes, func(i, j int) bool { return img.Routes[i].Prefix < img.Routes[j].Prefix })
	return img
}

// RestoreRoutes replays img into an empty table whose pool is inside a
// restore window (Pool.Restore ran, PruneUnreferenced has not). Each
// route takes one reference on its restored entry, exactly like a live
// Announce, so link counters, per-path groups and the signature come
// out identical to the exported table's.
func (t *Table) RestoreRoutes(img TableImage) error {
	if t.Len() != 0 {
		return fmt.Errorf("rib: restore into non-empty table (%d routes)", t.Len())
	}
	if img.LocalAS != t.localAS {
		return fmt.Errorf("rib: restore: table local AS %d, image %d", t.localAS, img.LocalAS)
	}
	// The link observer is muted for the replay: a restoring engine
	// discards its tracker state afterwards anyway (the inference
	// tracker is deliberately not part of the snapshot), and firing the
	// callback once per link of every restored route is a measurable
	// slice of a 100k-route warm restart.
	saved := t.onLinkChange
	t.onLinkChange = nil
	defer func() { t.onLinkChange = saved }()
	t.routes.Reserve(len(img.Routes))
	for _, r := range img.Routes {
		if _, dup := t.routes.Get(r.Prefix); dup {
			return fmt.Errorf("rib: restore: duplicate route for prefix %v", r.Prefix)
		}
		e, ok := t.pool.claimRestored(r.Path)
		if !ok {
			return fmt.Errorf("rib: restore: route %v names unknown path id %d", r.Prefix, r.Path)
		}
		t.addRoute(r.Prefix, e)
	}
	return nil
}
