package dataplane

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"swift/internal/encoding"
	"swift/internal/netaddr"
)

// TagEntry is one stage-1 rule — the compiler's own type, so a
// scheme's sorted assignment reaches the table without conversion.
type TagEntry = encoding.TagAssignment

// Poptrie is the stage-1 LPM table: a strictly ascending slice of tag
// entries that is the table itself, indexed for lookup by a DIR-24-8 /
// poptrie hybrid.
//
// The slice serves everything ordered or exact — Len, Get by binary
// search, ForEach and so the deterministic Dump and Export — and is
// the form every whole-table write takes: Replace validates an
// assignment and copies it into the recycled buffer.
//
// The read index is a 16-bit-stride direct-index root array — one
// probe resolves every prefix of length <= 16 — whose entries point,
// for chunks holding a >/16 tail, into compressed popcount-indexed
// stride-6 nodes (two 64-bit occupancy vectors per node, children and
// pushed leaf tags stored densely and addressed by popcount), so a /32
// hit costs the root probe plus at most three node hops and a miss
// rejects at the first empty vector.
//
// Single-prefix writes (Insert, Delete) shift the slice in place and
// mirror into the index incrementally: a long prefix repaints one
// node's 64 leaf slots from the node-local prefix set, a short prefix
// touches its 2^(16-len) root slots, and deleting a short prefix
// exposes the next-best cover the slice reports. Replace only marks the
// index dirty, so the next lookup rebuilds it in one pass over the
// slice — burst-end re-provisioning pays nothing until the table is
// actually read.
//
// The zero value is an empty table ready for use. A Poptrie is not
// safe for concurrent use.
type Poptrie struct {
	// entries is the table, strictly ascending by prefix.
	entries []TagEntry

	// rootLeaf[s] is the tag of the longest <=16-bit prefix covering
	// chunk s when no node exists for s; rootNode[s], when non-nil, is
	// the stride-6 subtree for the chunk's >/16 tail (the chunk's cover
	// then lives in the node's default, not here).
	rootLeaf []rootLeaf
	rootNode []*popNode

	// dirty marks the index stale after Replace; the next lookup
	// rebuilds it from entries.
	dirty bool
}

// rootLeaf packs a root slot's cover so one cache line resolves both
// the tag and the presence/length test. l encodes "no cover" as 0 and a
// cover of length n as n+1, so the cleared state is the empty one.
type rootLeaf struct {
	tag encoding.Tag
	l   uint8
}

// popNode is one stride-6 level of a chunk subtree. Occupied leaf slots
// (leafBits) and children (intBits) are popcount-indexed into the dense
// leaves/children slices. local holds the node's own prefixes — those
// whose length lands within this node's six bits — from which the 64
// leaf slots are repainted on every local update; defTag/defLen carry
// the chunk's <=16-bit cover on depth-16 nodes (same 0 = none encoding
// as rootLeaf.l).
type popNode struct {
	leafBits uint64
	intBits  uint64
	leaves   []encoding.Tag
	children []*popNode
	local    []localPfx
	defTag   encoding.Tag
	defLen   uint8
}

// localPfx is one prefix terminating inside a node: pat is its
// remaining bits left-aligned in the 6-bit stride, rem (1..6) how many
// of them are significant. It paints leaf slots [pat, pat+2^(6-rem)).
type localPfx struct {
	pat uint8
	rem uint8
	tag encoding.Tag
}

// search returns pfx's position in entries: its index when present,
// else where it would be inserted.
func (p *Poptrie) search(pfx netaddr.Prefix) (int, bool) {
	return slices.BinarySearchFunc(p.entries, pfx, func(e TagEntry, q netaddr.Prefix) int {
		return cmp.Compare(e.Prefix, q)
	})
}

// Len returns the number of tagged prefixes.
func (p *Poptrie) Len() int { return len(p.entries) }

// Get returns the tag stored exactly at pfx (no LPM).
func (p *Poptrie) Get(pfx netaddr.Prefix) (encoding.Tag, bool) {
	i, ok := p.search(pfx)
	if !ok {
		return 0, false
	}
	return p.entries[i].Tag, true
}

// ForEach visits every tagged prefix in ascending netaddr order
// (address, then length — a covering prefix before the more specific
// prefixes beneath it).
func (p *Poptrie) ForEach(fn func(pfx netaddr.Prefix, tag encoding.Tag)) {
	for _, e := range p.entries {
		fn(e.Prefix, e.Tag)
	}
}

// Insert sets pfx's tag, returning true when pfx was not present
// before, and mirrors the write into the index. pfx must be canonical,
// as netaddr.MakePrefix builds it. A fresh prefix shifts the entries
// after it: O(n), which the stage-1 writers that use it — tables of a
// few hundred prefixes — never notice.
func (p *Poptrie) Insert(pfx netaddr.Prefix, tag encoding.Tag) bool {
	i, found := p.search(pfx)
	if found {
		p.entries[i].Tag = tag
	} else {
		p.entries = slices.Insert(p.entries, i, TagEntry{Prefix: pfx, Tag: tag})
	}
	if !p.dirty {
		p.ensure()
		p.insertRead(pfx.Addr(), pfx.Len(), tag, true)
	}
	return !found
}

// Delete removes pfx's tag, reporting whether it was present.
func (p *Poptrie) Delete(pfx netaddr.Prefix) bool {
	i, found := p.search(pfx)
	if !found {
		return false
	}
	p.entries = slices.Delete(p.entries, i, i+1)
	if !p.dirty && p.rootLeaf != nil {
		p.deleteRead(pfx.Addr(), pfx.Len())
	}
	return true
}

// Replace swaps in a complete table. entries must pass
// encoding.CheckTags — canonical prefixes in strictly ascending order,
// as encoding.Scheme.Tags, Export and ForEach emit them; anything else
// is rejected with the table untouched. It serves provision,
// re-provision and warm restart alike: the entries are copied into the
// previous table's buffer, so a Replace that fits it allocates nothing,
// and entries is only read during the call. The index is only marked
// stale: the next lookup rebuilds it in one ordered pass.
func (p *Poptrie) Replace(entries []TagEntry) error {
	if err := encoding.CheckTags(entries); err != nil {
		return fmt.Errorf("dataplane: replace: %w", err)
	}
	p.entries = append(p.entries[:0], entries...)
	p.dirty = true
	return nil
}

// Lookup returns the tag of the longest tagged prefix containing addr.
func (p *Poptrie) Lookup(addr uint32) (encoding.Tag, bool) {
	if p.dirty {
		p.rebuild()
	}
	if p.rootNode == nil {
		return 0, false
	}
	s := addr >> 16
	n := p.rootNode[s]
	if n == nil {
		rl := p.rootLeaf[s]
		return rl.tag, rl.l != 0
	}
	best, ok := n.defTag, n.defLen != 0
	key := addr << 16
	for {
		bit := uint64(1) << (key >> 26)
		key <<= 6
		if n.leafBits&bit != 0 {
			best, ok = n.leaves[bits.OnesCount64(n.leafBits&(bit-1))], true
		}
		if n.intBits&bit == 0 {
			return best, ok
		}
		n = n.children[bits.OnesCount64(n.intBits&(bit-1))]
	}
}

// LookupBatch resolves a burst of addresses in one call: tags[i], ok[i]
// receive what Lookup(addrs[i]) would return. tags and ok must be at
// least len(addrs) long. Batching amortizes the per-call overhead and
// keeps the root array hot across the burst, NDN-DPDK style.
func (p *Poptrie) LookupBatch(addrs []uint32, tags []encoding.Tag, ok []bool) {
	if p.dirty {
		p.rebuild()
	}
	tags = tags[:len(addrs)]
	ok = ok[:len(addrs)]
	if p.rootNode == nil {
		for i := range addrs {
			tags[i], ok[i] = 0, false
		}
		return
	}
	for i, addr := range addrs {
		n := p.rootNode[addr>>16]
		if n == nil {
			rl := p.rootLeaf[addr>>16]
			tags[i], ok[i] = rl.tag, rl.l != 0
			continue
		}
		best, found := n.defTag, n.defLen != 0
		key := addr << 16
		for {
			bit := uint64(1) << (key >> 26)
			key <<= 6
			if n.leafBits&bit != 0 {
				best, found = n.leaves[bits.OnesCount64(n.leafBits&(bit-1))], true
			}
			if n.intBits&bit == 0 {
				break
			}
			n = n.children[bits.OnesCount64(n.intBits&(bit-1))]
		}
		tags[i], ok[i] = best, found
	}
}

// ensure allocates the root arrays on first use.
func (p *Poptrie) ensure() {
	if p.rootLeaf == nil {
		p.rootLeaf = make([]rootLeaf, 1<<16)
		p.rootNode = make([]*popNode, 1<<16)
	}
}

// rebuild reconstructs the index from entries in one ordered pass:
// locals are collected unpainted and every node is painted once at the
// end, instead of once per prefix landing in it.
func (p *Poptrie) rebuild() {
	p.dirty = false
	p.ensure()
	clear(p.rootLeaf)
	clear(p.rootNode)
	for _, e := range p.entries {
		p.insertRead(e.Prefix.Addr(), e.Prefix.Len(), e.Tag, false)
	}
	for _, n := range p.rootNode {
		if n != nil {
			n.repaintAll()
		}
	}
}

// insertRead mirrors one insert into the read structures. paint is
// false only inside rebuild, which paints every node itself.
func (p *Poptrie) insertRead(addr uint32, plen int, tag encoding.Tag, paint bool) {
	if plen <= 16 {
		p.insertShort(addr, plen, tag)
		return
	}
	s := addr >> 16
	n := p.rootNode[s]
	if n == nil {
		// First long prefix in the chunk: the root slot's cover moves
		// into the node default.
		rl := p.rootLeaf[s]
		n = &popNode{defTag: rl.tag, defLen: rl.l}
		p.rootNode[s] = n
		p.rootLeaf[s] = rootLeaf{}
	}
	d, key := 16, addr<<16
	for plen > d+6 {
		n = n.ensureChild(uint(key >> 26))
		key <<= 6
		d += 6
	}
	// addr is masked to plen, so the top 6 remaining bits already have
	// zeros below the rem significant ones.
	n.setLocal(uint8(key>>26), uint8(plen-d), tag)
	if paint {
		n.repaint()
	}
}

// insertShort expands a <=16-bit prefix over its root slots, longest
// cover winning per slot (equal length means the same prefix — an
// overwrite).
func (p *Poptrie) insertShort(addr uint32, plen int, tag encoding.Tag) {
	l := uint8(plen) + 1
	lo := addr >> 16
	hi := lo + 1<<(16-plen)
	for s := lo; s < hi; s++ {
		if n := p.rootNode[s]; n != nil {
			if l >= n.defLen {
				n.defTag, n.defLen = tag, l
			}
		} else if l >= p.rootLeaf[s].l {
			p.rootLeaf[s] = rootLeaf{tag: tag, l: l}
		}
	}
}

// deleteRead mirrors one delete; entries (already updated) supply the
// next-best cover where a short prefix was the visible one.
func (p *Poptrie) deleteRead(addr uint32, plen int) {
	if plen <= 16 {
		p.deleteShort(addr, plen)
		return
	}
	s := addr >> 16
	n := p.rootNode[s]
	if n == nil {
		return
	}
	if p.deleteLong(n, addr<<16, plen-16) {
		// Chunk subtree emptied: its cover returns to the root slot.
		p.rootLeaf[s] = rootLeaf{tag: n.defTag, l: n.defLen}
		p.rootNode[s] = nil
	}
}

// deleteShort withdraws a <=16-bit prefix: every slot it was the
// visible cover of (cover length equal — a slot cannot be covered by
// two distinct prefixes of one length) falls back to the next-best
// cover. No slot it was visible in has a cover longer than plen within
// 16 bits, and every shorter cover of such a slot covers the whole
// prefix, so that cover is one and the same for all of them.
func (p *Poptrie) deleteShort(addr uint32, plen int) {
	l := uint8(plen) + 1
	tag, nl := p.cover(addr, plen)
	lo := addr >> 16
	hi := lo + 1<<(16-plen)
	for s := lo; s < hi; s++ {
		if n := p.rootNode[s]; n != nil {
			if n.defLen == l {
				n.defTag, n.defLen = tag, nl
			}
		} else if p.rootLeaf[s].l == l {
			p.rootLeaf[s] = rootLeaf{tag: tag, l: nl}
		}
	}
}

// cover returns the longest stored prefix shorter than plen bits that
// contains addr, its length encoded as the root covers are (length+1,
// 0 for none): at most plen exact searches of entries.
func (p *Poptrie) cover(addr uint32, plen int) (encoding.Tag, uint8) {
	for l := plen - 1; l >= 0; l-- {
		if i, ok := p.search(netaddr.MakePrefix(addr, l)); ok {
			return p.entries[i].Tag, uint8(l) + 1
		}
	}
	return 0, 0
}

// deleteLong removes the prefix (key left-aligned, rem bits remaining)
// from the subtree under n, collapsing emptied nodes; it reports
// whether n itself is now empty.
func (p *Poptrie) deleteLong(n *popNode, key uint32, rem int) bool {
	if rem <= 6 {
		n.removeLocal(uint8(key>>26), uint8(rem))
		n.repaint()
	} else {
		bit := uint64(1) << (key >> 26)
		if n.intBits&bit != 0 {
			pos := bits.OnesCount64(n.intBits & (bit - 1))
			if p.deleteLong(n.children[pos], key<<6, rem-6) {
				copy(n.children[pos:], n.children[pos+1:])
				n.children = n.children[:len(n.children)-1]
				n.intBits &^= bit
			}
		}
	}
	return n.leafBits == 0 && n.intBits == 0
}

// ensureChild returns the child at slot idx, creating (and
// popcount-inserting) it when absent.
func (n *popNode) ensureChild(idx uint) *popNode {
	bit := uint64(1) << idx
	pos := bits.OnesCount64(n.intBits & (bit - 1))
	if n.intBits&bit != 0 {
		return n.children[pos]
	}
	c := &popNode{}
	n.children = append(n.children, nil)
	copy(n.children[pos+1:], n.children[pos:])
	n.children[pos] = c
	n.intBits |= bit
	return c
}

// setLocal installs or overwrites the node-local prefix (pat, rem).
func (n *popNode) setLocal(pat, rem uint8, tag encoding.Tag) {
	for i := range n.local {
		if n.local[i].pat == pat && n.local[i].rem == rem {
			n.local[i].tag = tag
			return
		}
	}
	n.local = append(n.local, localPfx{pat: pat, rem: rem, tag: tag})
}

// removeLocal drops the node-local prefix (pat, rem) if present.
func (n *popNode) removeLocal(pat, rem uint8) {
	for i := range n.local {
		if n.local[i].pat == pat && n.local[i].rem == rem {
			n.local[i] = n.local[len(n.local)-1]
			n.local = n.local[:len(n.local)-1]
			return
		}
	}
}

// repaint rebuilds the node's 64 leaf slots from its local prefix set:
// every local expands over 2^(6-rem) slots, the longest winning each
// slot, and the dense popcount-indexed leaves vector is re-emitted in
// slot order — so the painted state is independent of insertion order.
func (n *popNode) repaint() {
	var tag [64]encoding.Tag
	var ln [64]uint8 // 0 = unpainted, else rem
	n.leafBits = 0
	for _, e := range n.local {
		lo := uint(e.pat)
		hi := lo + 1<<(6-e.rem)
		for s := lo; s < hi; s++ {
			if e.rem > ln[s] {
				ln[s], tag[s] = e.rem, e.tag
				n.leafBits |= uint64(1) << s
			}
		}
	}
	n.leaves = slices.Grow(n.leaves[:0], bits.OnesCount64(n.leafBits))
	for s := 0; s < 64; s++ {
		if ln[s] != 0 {
			n.leaves = append(n.leaves, tag[s])
		}
	}
}

// repaintAll paints n and every node below it.
func (n *popNode) repaintAll() {
	n.repaint()
	for _, c := range n.children {
		c.repaintAll()
	}
}
