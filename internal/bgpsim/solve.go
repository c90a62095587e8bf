// Package bgpsim is the control-plane simulator the evaluation uses in
// place of C-BGP [56]: it computes policy-compliant (Gao–Rexford)
// routing over an AS topology, replays link and node failures, and
// records the resulting timestamped BGP message streams at vantage-point
// sessions — bursts with ground truth about the failed resource.
//
// Routing is solved per origin AS with the standard three-phase
// valley-free propagation: customer routes climb provider links first,
// then a single peer hop, then provider routes descend to customers.
// Preference is customer > peer > provider, then shorter AS path, then
// lower next-hop ASN — with an optional per-AS explicit neighbor
// ranking used by fixtures like Fig. 1 where the paper pins the choice.
package bgpsim

import (
	"sort"

	"swift/internal/topology"
)

// Class ranks a route by the relationship through which it was learned.
type Class int8

// Route classes in preference order (lower is better).
const (
	ClassOwn Class = iota
	ClassCustomer
	ClassPeer
	ClassProvider
	ClassNone
)

// Route is one AS's best route towards an origin.
type Route struct {
	// Path lists the ASes from the holder's next-hop to the origin
	// (inclusive). It is empty for the origin itself. A nil path with
	// Class == ClassNone means no route.
	Path  []uint32
	Class Class
}

// Valid reports whether the route exists.
func (r Route) Valid() bool { return r.Class != ClassNone }

// NextHop returns the neighbor the route points at (0 for the origin's
// own route and for invalid routes).
func (r Route) NextHop() uint32 {
	if len(r.Path) == 0 {
		return 0
	}
	return r.Path[0]
}

// Policy hooks refine pure Gao–Rexford routing.
type Policy struct {
	// Export, when non-nil, can veto an export that Gao–Rexford would
	// allow. It models selective announcement agreements such as the
	// partial transit of Fig. 1 (exporter→importer for origin).
	Export func(exporter, importer, origin uint32) bool
	// Prefer maps an AS to an explicit neighbor ranking that overrides
	// the class/length tie-breaks. Neighbors absent from the list rank
	// after listed ones.
	Prefer map[uint32][]uint32
}

func (p *Policy) exportAllowed(exporter, importer, origin uint32) bool {
	if p == nil || p.Export == nil {
		return true
	}
	return p.Export(exporter, importer, origin)
}

// prefRank returns the explicit preference rank of neighbor at as, or a
// large value when unranked.
func (p *Policy) prefRank(as, neighbor uint32) int {
	if p == nil {
		return 1 << 30
	}
	list, ok := p.Prefer[as]
	if !ok {
		return 1 << 30
	}
	for i, n := range list {
		if n == neighbor {
			return i
		}
	}
	return 1 << 30
}

// OriginSolution holds every AS's best route towards one origin.
type OriginSolution struct {
	Origin uint32
	best   map[uint32]Route
}

// RouteAt returns as's best route towards the origin.
func (s *OriginSolution) RouteAt(as uint32) Route {
	if as == s.Origin {
		return Route{Class: ClassOwn}
	}
	r, ok := s.best[as]
	if !ok {
		return Route{Class: ClassNone}
	}
	return r
}

// gaoRexfordExports reports whether holder may export its route r to
// importer under the baseline rules: own and customer routes go to
// everyone; peer and provider routes go to customers only.
func gaoRexfordExports(g *topology.Graph, holder uint32, r Route, importer uint32) bool {
	rel, ok := g.RelOf(holder, importer)
	if !ok {
		return false
	}
	if r.Class == ClassOwn || r.Class == ClassCustomer {
		return true
	}
	return rel == topology.RelCustomer
}

// ExportTo returns the route holder exports to importer for this
// origin under policy pol, applying both Gao–Rexford and the custom
// filter. ok is false when nothing is exported.
func (s *OriginSolution) ExportTo(g *topology.Graph, pol *Policy, holder, importer uint32) (Route, bool) {
	r := s.RouteAt(holder)
	if !r.Valid() {
		return Route{Class: ClassNone}, false
	}
	if !gaoRexfordExports(g, holder, r, importer) {
		return Route{Class: ClassNone}, false
	}
	if !pol.exportAllowed(holder, importer, s.Origin) {
		return Route{Class: ClassNone}, false
	}
	// The exported path is holder prepended to holder's path, with the
	// class as seen by the importer (decided by the importer's
	// relationship to holder, not carried here).
	path := make([]uint32, 0, 1+len(r.Path))
	path = append(path, holder)
	path = append(path, r.Path...)
	return Route{Path: path, Class: r.Class}, true
}

// SolveOrigin computes every AS's best route towards origin on g under
// pol. The implementation is deterministic.
func SolveOrigin(g *topology.Graph, pol *Policy, origin uint32) *OriginSolution {
	sol := &OriginSolution{Origin: origin, best: make(map[uint32]Route)}

	// better reports whether a beats b at holder, under explicit
	// preference, then class, then path length, then next-hop ASN.
	better := func(holder uint32, aClass Class, a cand, bClass Class, b cand) bool {
		ra, rb := pol.prefRank(holder, a.via), pol.prefRank(holder, b.via)
		if ra != rb {
			return ra < rb
		}
		if aClass != bClass {
			return aClass < bClass
		}
		if len(a.path) != len(b.path) {
			return len(a.path) < len(b.path)
		}
		return a.via < b.via
	}

	// classOf is the class of a route learned from neighbor n at holder.
	classOf := func(holder, n uint32) Class {
		rel, _ := g.RelOf(holder, n)
		switch rel {
		case topology.RelCustomer:
			return ClassCustomer
		case topology.RelPeer:
			return ClassPeer
		default:
			return ClassProvider
		}
	}

	// install records the best candidate per holder from a batch.
	install := func(holder uint32, c cand) {
		cls := classOf(holder, c.via)
		cur, ok := sol.best[holder]
		if !ok {
			sol.best[holder] = Route{Path: c.path, Class: cls}
			return
		}
		curCand := cand{via: cur.NextHop(), path: cur.Path}
		if better(holder, cls, c, cur.Class, curCand) {
			sol.best[holder] = Route{Path: c.path, Class: cls}
		}
	}

	// exportFrom yields the path holder would export (holder prepended).
	exportFrom := func(holder uint32) []uint32 {
		if holder == origin {
			return []uint32{origin}
		}
		r := sol.best[holder]
		path := make([]uint32, 0, 1+len(r.Path))
		path = append(path, holder)
		return append(path, r.Path...)
	}

	// Phase 1: customer routes ripple up provider links, BFS by level so
	// shorter paths install first and are never displaced (a route via a
	// customer at distance d can't beat one at distance d-1: equal class,
	// shorter path). Explicit preference can override within a level —
	// handled because installs within a level race through better().
	level := []uint32{origin}
	visited := map[uint32]bool{origin: true}
	for len(level) > 0 {
		// Deterministic processing order.
		sort.Slice(level, func(i, j int) bool { return level[i] < level[j] })
		var next []uint32
		for _, u := range level {
			path := exportFrom(u)
			for _, nb := range g.Neighbors(u) {
				if nb.Rel != topology.RelProvider {
					continue // only u's providers learn a customer route here
				}
				if nb.AS == origin || !pol.exportAllowed(u, nb.AS, origin) {
					continue
				}
				install(nb.AS, cand{via: u, path: path})
				if !visited[nb.AS] {
					visited[nb.AS] = true
					next = append(next, nb.AS)
				}
			}
		}
		level = next
	}

	// Phase 2: one peer hop. Every AS holding a customer route (or the
	// origin) offers it to peers. Peer routes never propagate further
	// through peers (valley-free).
	holders := make([]uint32, 0, len(sol.best)+1)
	holders = append(holders, origin)
	for as := range sol.best {
		holders = append(holders, as)
	}
	sort.Slice(holders, func(i, j int) bool { return holders[i] < holders[j] })
	type peerCand struct {
		to uint32
		c  cand
	}
	var peerCands []peerCand
	for _, u := range holders {
		if u != origin && sol.best[u].Class != ClassCustomer {
			continue
		}
		path := exportFrom(u)
		for _, nb := range g.Neighbors(u) {
			if nb.Rel != topology.RelPeer || nb.AS == origin {
				continue
			}
			if !pol.exportAllowed(u, nb.AS, origin) {
				continue
			}
			peerCands = append(peerCands, peerCand{to: nb.AS, c: cand{via: u, path: path}})
		}
	}
	for _, pc := range peerCands {
		install(pc.to, pc.c)
	}

	// Phase 3: provider routes descend customer links. A node may first
	// hear a long provider route (via a provider whose own route is a
	// long customer path) and later a shorter one through a provider
	// chain, so plain BFS under-relaxes; process exports shortest-first
	// with a heap (Dijkstra — hop weights are uniform, so pops are
	// monotone and each node's provider route finalizes at its minimum).
	var h exportHeap
	push := func(u uint32) {
		path := exportFrom(u)
		for _, nb := range g.Neighbors(u) {
			if nb.Rel != topology.RelCustomer || nb.AS == origin {
				continue // only customers learn provider routes
			}
			if !pol.exportAllowed(u, nb.AS, origin) {
				continue
			}
			h.push(exportItem{to: nb.AS, c: cand{via: u, path: path}})
		}
	}
	// Seed with every AS that holds any route after phases 1–2 (the
	// earlier holders list predates peer installation, so rebuild).
	seeds := make([]uint32, 0, len(sol.best)+1)
	seeds = append(seeds, origin)
	for as := range sol.best {
		seeds = append(seeds, as)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, as := range seeds {
		push(as)
	}
	for h.Len() > 0 {
		it := h.pop()
		before := sol.best[it.to]
		install(it.to, it.c)
		if routeChanged(before, sol.best[it.to]) {
			push(it.to)
		}
	}
	return sol
}

func routeChanged(a, b Route) bool {
	if a.Class != b.Class || len(a.Path) != len(b.Path) {
		return true
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return true
		}
	}
	return false
}
