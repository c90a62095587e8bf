package dataplane

import (
	"fmt"
	"math/bits"
	"sort"

	"swift/internal/encoding"
	"swift/internal/netaddr"
)

// Trie is a compressed (path-collapsed) binary trie over IPv4 prefixes
// supporting longest-prefix match — the stage-1 structure of the FIB.
// One-child chains are collapsed into a single node carrying the whole
// bit string, so lookups touch at most one node per branching point
// instead of one per bit, and an empty or sparse table costs nothing.
//
// Its O(32) worst case is independent of the prefix-length mix, and it
// gives the FIB what a hash map cannot: ordered iteration (the
// deterministic Dump the equivalence tests pin) and a whole-table bulk
// build from a sorted assignment (Replace). BenchmarkLPM* in
// bench_test.go measures it beside a map baseline.
//
// The zero value is an empty trie ready for use.
type Trie struct {
	root *trieNode
	size int
	// slab backs the nodes of the last Replace and is recycled by the
	// next one.
	slab []trieNode
}

// trieNode covers the prefix (key, bits). Children, when present,
// extend the node's bit string and diverge on bit position bits (the
// first bit after the node's prefix). A node exists either because a
// tag is stored on it (tagged) or because two tagged descendants
// diverge below it. The mask is stored, not recomputed, because the
// containment test runs once per node on the lookup path.
type trieNode struct {
	key    uint32 // left-aligned network bits, masked to bits
	mask   uint32 // netaddr.Mask(bits)
	bits   uint8
	tagged bool
	tag    encoding.Tag
	child  [2]*trieNode
}

func newTrieNode(addr uint32, bits uint8) *trieNode {
	m := netaddr.Mask(int(bits))
	return &trieNode{key: addr & m, mask: m, bits: bits}
}

// TagEntry is one stage-1 rule — the compiler's own type, so a
// scheme's sorted assignment reaches the table without conversion.
type TagEntry = encoding.TagAssignment

// bitAt returns bit i of x counting from the most significant (bit 0).
func bitAt(x uint32, i uint8) int { return int(x>>(31-i)) & 1 }

// commonBits returns the length of the longest common prefix of a and
// b, capped at max.
func commonBits(a, b uint32, max uint8) uint8 {
	c := uint8(bits.LeadingZeros32(a ^ b))
	if c > max {
		return max
	}
	return c
}

// Len returns the number of tagged prefixes.
func (t *Trie) Len() int { return t.size }

// Insert sets p's tag, returning true when p was not present before
// (an overwrite returns false).
func (t *Trie) Insert(p netaddr.Prefix, tag encoding.Tag) bool {
	addr, plen := p.Addr(), uint8(p.Len())
	pp := &t.root
	for {
		n := *pp
		if n == nil {
			leaf := newTrieNode(addr, plen)
			leaf.tagged, leaf.tag = true, tag
			*pp = leaf
			t.size++
			return true
		}
		limit := plen
		if n.bits < limit {
			limit = n.bits
		}
		cb := commonBits(addr, n.key, limit)
		if cb < n.bits {
			// Diverge above n: split its collapsed path at cb.
			split := newTrieNode(addr, cb)
			split.child[bitAt(n.key, cb)] = n
			if cb == plen {
				split.tagged, split.tag = true, tag
			} else {
				leaf := newTrieNode(addr, plen)
				leaf.tagged, leaf.tag = true, tag
				split.child[bitAt(addr, cb)] = leaf
			}
			*pp = split
			t.size++
			return true
		}
		if n.bits == plen {
			fresh := !n.tagged
			n.tagged, n.tag = true, tag
			if fresh {
				t.size++
			}
			return fresh
		}
		// n's prefix covers p strictly: descend on the next bit.
		pp = &n.child[bitAt(addr, n.bits)]
	}
}

// Delete removes p's tag, reporting whether it was present. Pass-through
// nodes left with fewer than two children are collapsed back into their
// remaining child, so the structure never accumulates dead interior
// nodes across withdraw/re-announce cycles.
func (t *Trie) Delete(p netaddr.Prefix) bool {
	var ok bool
	t.root, ok = t.delete(t.root, p.Addr(), uint8(p.Len()))
	if ok {
		t.size--
	}
	return ok
}

func (t *Trie) delete(n *trieNode, addr uint32, plen uint8) (*trieNode, bool) {
	if n == nil || n.bits > plen || addr&n.mask != n.key {
		return n, false
	}
	if n.bits == plen {
		if !n.tagged {
			return n, false
		}
		n.tagged = false
		return collapse(n), true
	}
	c := bitAt(addr, n.bits)
	nc, ok := t.delete(n.child[c], addr, plen)
	if !ok {
		return n, false
	}
	n.child[c] = nc
	return collapse(n), true
}

// collapse removes n if it is an untagged pass-through: with no
// children it vanishes, with one child the child (whose key already
// carries the full bit string) takes its place.
func collapse(n *trieNode) *trieNode {
	if n.tagged {
		return n
	}
	a, b := n.child[0], n.child[1]
	switch {
	case a != nil && b != nil:
		return n
	case a != nil:
		return a
	default:
		return b // nil when both children are gone
	}
}

// Lookup returns the tag of the longest tagged prefix containing addr.
func (t *Trie) Lookup(addr uint32) (encoding.Tag, bool) {
	var best encoding.Tag
	found := false
	for n := t.root; n != nil; {
		if addr&n.mask != n.key {
			break
		}
		if n.tagged {
			best, found = n.tag, true
		}
		if n.bits == 32 {
			break
		}
		n = n.child[bitAt(addr, n.bits)]
	}
	return best, found
}

// lookupMax returns the longest tagged prefix of length <= maxBits
// containing addr, encoded as the Poptrie root covers are: length+1,
// with 0 meaning no match. It is the oracle the poptrie consults when a
// deleted short prefix exposes the next-best cover of a root slot.
func (t *Trie) lookupMax(addr uint32, maxBits uint8) (encoding.Tag, uint8) {
	var best encoding.Tag
	l := uint8(0)
	for n := t.root; n != nil && n.bits <= maxBits; {
		if addr&n.mask != n.key {
			break
		}
		if n.tagged {
			best, l = n.tag, n.bits+1
		}
		if n.bits == 32 {
			break
		}
		n = n.child[bitAt(addr, n.bits)]
	}
	return best, l
}

// Get returns the tag stored exactly at p (no LPM).
func (t *Trie) Get(p netaddr.Prefix) (encoding.Tag, bool) {
	addr, plen := p.Addr(), uint8(p.Len())
	for n := t.root; n != nil; {
		if n.bits > plen || addr&n.mask != n.key {
			return 0, false
		}
		if n.bits == plen {
			return n.tag, n.tagged
		}
		n = n.child[bitAt(addr, n.bits)]
	}
	return 0, false
}

// ForEach visits every tagged prefix in ascending netaddr order
// (address, then length — a node's covering prefix before the more
// specific prefixes beneath it).
func (t *Trie) ForEach(fn func(p netaddr.Prefix, tag encoding.Tag)) {
	t.root.walk(fn)
}

func (n *trieNode) walk(fn func(p netaddr.Prefix, tag encoding.Tag)) {
	if n == nil {
		return
	}
	if n.tagged {
		fn(netaddr.MakePrefix(n.key, int(n.bits)), n.tag)
	}
	n.child[0].walk(fn)
	n.child[1].walk(fn)
}

// Replace swaps the trie's contents for entries, which must be in
// strictly ascending prefix order — the order encoding.Scheme.Tags,
// Export and ForEach emit; anything else is rejected with the trie
// left untouched. It is the single stage-1 build path (provision,
// re-provision and restore): one top-down pass over the sorted slice
// with every node taken from one slab, producing the same canonical
// structure per-entry Insert would (a node exists iff it is tagged or
// two tagged descendants diverge below it) with no path splitting or
// re-walking.
//
// The slab is recycled: a Replace whose 2n-1 nodes fit the previous
// slab's capacity overwrites it in place and allocates nothing, so no
// node pointer or Trie value copied out before the call may be used
// after it. Nodes added by later Inserts live on the heap and go with
// the rest of the old structure; later Deletes free no slab memory.
func (t *Trie) Replace(entries []TagEntry) error {
	for i := 1; i < len(entries); i++ {
		if entries[i].Prefix <= entries[i-1].Prefix {
			return fmt.Errorf("dataplane: entries not strictly ascending at %v", entries[i].Prefix)
		}
	}
	t.root, t.size = nil, len(entries)
	if len(entries) == 0 {
		return nil
	}
	if need := 2*len(entries) - 1; cap(t.slab) < need {
		t.slab = make([]trieNode, 0, need)
	}
	t.slab = t.slab[:0]
	t.root = t.build(entries)
	return nil
}

// build constructs the subtree covering the non-empty sorted slice s,
// appending its nodes to the slab (never past the capacity Replace
// reserved, so earlier nodes do not move). The subtree's root prefix
// is the longest common prefix of the whole slice: the divergence point
// of the first and last addresses, clipped to the first entry's length
// (ascending order puts the shortest prefix of the smallest address
// first, so no other entry can be shorter).
func (t *Trie) build(s []TagEntry) *trieNode {
	first := s[0]
	faddr, flen := first.Prefix.Addr(), uint8(first.Prefix.Len())
	r := flen
	if len(s) > 1 {
		r = min(r, commonBits(faddr, s[len(s)-1].Prefix.Addr(), 32))
	}
	m := netaddr.Mask(int(r))
	t.slab = append(t.slab, trieNode{key: faddr & m, mask: m, bits: r})
	n := &t.slab[len(t.slab)-1]
	rest := s
	if flen == r {
		n.tagged, n.tag = true, first.Tag
		rest = s[1:]
	}
	// Every remaining entry extends past bit r, and ascending order
	// keeps the bit-r=0 entries contiguous before the bit-r=1 ones.
	split := sort.Search(len(rest), func(i int) bool {
		return bitAt(rest[i].Prefix.Addr(), r) == 1
	})
	// When n is untagged, r is the exact first/last divergence, so both
	// sides are non-empty and no pass-through chain is created.
	if split > 0 {
		n.child[0] = t.build(rest[:split])
	}
	if split < len(rest) {
		n.child[1] = t.build(rest[split:])
	}
	return n
}
