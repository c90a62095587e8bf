package main

import (
	"math/rand"

	"swift/internal/event"
	"swift/internal/netaddr"
)

// The synthetic routing system every workload draws its inputs from.
//
// The monitored router (localAS) has one BGP session per peer. Peer i's
// neighbor is AS peerAS(i); behind it the world is a tree of prefix
// groups shared by every peer: group g hangs off mid-tier AS B(g), which
// reaches the neighbor through transit AS A(g/2, parent). Two groups
// share each transit so that the link (A, B(g)) — the one the bursts
// fail — carries half of what (P, A) does and the inference can tell
// them apart. A group is groupOrigins origin ASes of originPrefixes /24s
// each, so its 4,096 prefixes clear the encoder's 1,500-prefix threshold
// and one failure crosses the 2,500-withdrawal trigger exactly once.
//
//	path(peer, g, o) = [P, A(g/2, parent), B(g), (X(g) when variant 1), O(g, o)]
//
// parent flips when a permanent failure re-homes the group; variant
// alternates under route-replacement churn.
const (
	localAS        = 65000
	altNeighbor1   = 200 // alternates offered by two other neighbors,
	altNeighbor2   = 201 // preloaded through FleetConfig.OnPeer
	groupOrigins   = 64
	originPrefixes = 64
	groupPrefixes  = groupOrigins * originPrefixes
)

// groupRef is one slice of the shared world in a peer's table: the
// first origins origin ASes of group g.
type groupRef struct {
	g       int
	origins int
}

type peerInfo struct {
	key    event.PeerKey
	addr   uint32
	groups []groupRef
	offs   []int // offs[i] is the local index of groups[i]'s first prefix
	size   int   // table size in prefixes
}

type world struct {
	peers []peerInfo
	// addrMask and asMask fold the seed into prefix addresses and origin
	// AS numbers, so two seeds never produce the same wire bytes.
	addrMask uint32
	asMask   uint32
}

func newWorld(seed int64, shapes [][]groupRef) *world {
	rng := rand.New(rand.NewSource(seed))
	w := &world{addrMask: uint32(rng.Intn(1 << 16)), asMask: uint32(rng.Intn(1 << 12))}
	for i, groups := range shapes {
		p := peerInfo{
			// Router IDs step by two: the fleet pins a peer to a worker by the
			// low bits of a hash of (AS, ID), and with both stepping by one
			// those bits never change — every peer lands on one worker.
			key:    event.PeerKey{AS: peerAS(i), BGPID: 0x0a000001 + 2*uint32(i)},
			addr:   0xc0a80001 + uint32(i),
			groups: groups,
		}
		for _, gr := range groups {
			p.offs = append(p.offs, p.size)
			p.size += gr.origins * originPrefixes
		}
		w.peers = append(w.peers, p)
	}
	return w
}

// uniform builds n identical peer shapes of groups full groups each.
func uniform(n, groups int) [][]groupRef {
	shapes := make([][]groupRef, n)
	for i := range shapes {
		for g := 0; g < groups; g++ {
			shapes[i] = append(shapes[i], groupRef{g: g, origins: groupOrigins})
		}
	}
	return shapes
}

func peerAS(i int) uint32            { return 100 + uint32(i) }
func transitAS(a, parent int) uint32 { return 1000 + 500*uint32(parent) + uint32(a) }
func midAS(g int) uint32             { return 2000 + uint32(g) }
func detourAS(g int) uint32          { return 3000 + uint32(g) }
func (w *world) originAS(g, o int) uint32 {
	return 10000 + (uint32(g*groupOrigins+o) ^ w.asMask)
}

// prefix returns the /24 of origin o's j-th prefix in group g — the
// same prefix on every peer, as in a full-table deployment.
func (w *world) prefix(g, o, j int) netaddr.Prefix {
	idx := uint32((g*groupOrigins+o)*originPrefixes+j) ^ w.addrMask
	return netaddr.MakePrefix((0x0a0000+idx)<<8, 24)
}

// route is the state the generator and the naive model keep per
// (peer, prefix): 0 = withdrawn, otherwise routePresent|parent|variant.
type route uint8

const (
	routePresent route = 1
	routeParent  route = 2 // re-homed onto the alternate transit
	routeVariant route = 4 // detour hop inserted (replacement churn)
)

// appendPath appends the AS path of (peer i, group g, origin o) in the
// given route state.
func (w *world) appendPath(dst []uint32, i, g, o int, r route) []uint32 {
	parent := 0
	if r&routeParent != 0 {
		parent = 1
	}
	dst = append(dst, peerAS(i), transitAS(g/2, parent), midAS(g))
	if r&routeVariant != 0 {
		dst = append(dst, detourAS(g))
	}
	return append(dst, w.originAS(g, o))
}

// appendAltPath appends the path neighbor offers for (g, o): two
// disjoint detours that avoid every transit and mid-tier AS, so each
// protected link has an endpoint-free backup.
func (w *world) appendAltPath(dst []uint32, neighbor uint32, g, o int) []uint32 {
	if neighbor == altNeighbor1 {
		return append(dst, altNeighbor1, 4000+uint32(g), w.originAS(g, o))
	}
	return append(dst, altNeighbor2, 4100, 4200+uint32(g), w.originAS(g, o))
}

// routes calls fn for every route of peer i's initial table. The path
// is shared by an origin's prefixes and reused: fn must not keep it.
func (w *world) routes(i int, fn func(p netaddr.Prefix, path []uint32)) {
	var path []uint32
	for _, gr := range w.peers[i].groups {
		for o := 0; o < gr.origins; o++ {
			path = w.appendPath(path[:0], i, gr.g, o, routePresent)
			for j := 0; j < originPrefixes; j++ {
				fn(w.prefix(gr.g, o, j), path)
			}
		}
	}
}

// appendPrefixes appends the prefixes message m carries and returns
// them with the AS path it announces them on (nil for a withdrawal).
func (w *world) appendPrefixes(dst []netaddr.Prefix, path []uint32, m *msg) ([]netaddr.Prefix, []uint32) {
	p := &w.peers[m.peer]
	slot, o, j := p.locate(int(m.first))
	if m.state != 0 {
		path = w.appendPath(path, int(m.peer), p.groups[slot].g, o, m.state)
	}
	for k := int32(0); k < m.n; k++ {
		dst = append(dst, w.prefix(p.groups[slot].g, o, j))
		if j++; j == originPrefixes {
			if j, o = 0, o+1; o == p.groups[slot].origins {
				slot, o = slot+1, 0
			}
		}
	}
	return dst, path
}

// locate maps a peer-local prefix index to its (group slot, origin,
// prefix-in-origin) coordinates.
func (p *peerInfo) locate(local int) (slot, o, j int) {
	for slot = len(p.offs) - 1; p.offs[slot] > local; slot-- {
	}
	rem := local - p.offs[slot]
	return slot, rem / originPrefixes, rem % originPrefixes
}
