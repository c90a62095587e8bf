// Package encoding implements the SWIFT data-plane encoding scheme of
// §5. It compresses, into a fixed tag (48 bits when carried in a
// destination MAC), (1) the AS links a packet will traverse, one
// adaptive-width bit group per path position, and (2) the primary
// next-hop plus one backup next-hop per protected link depth. A single
// ternary match on the tag then reroutes every prefix affected by an
// inferred link failure, independently of how many prefixes there are.
//
// Space comes from the paper's two observations: links carrying fewer
// than ~1,500 prefixes never produce bursts worth fast-rerouting and are
// left unencoded, and the paths a single router uses exhibit few
// distinct links per position, so per-position dictionaries stay small.
package encoding

import (
	"fmt"
	"math/bits"
	"sort"

	"swift/internal/netaddr"
	"swift/internal/reroute"
	"swift/internal/rib"
	"swift/internal/topology"
)

// Config sizes the tag.
type Config struct {
	// TagBits is the total tag width (48 for a destination MAC).
	TagBits int
	// PathBits is the budget for Part 1, the AS-link groups (§6.4 shows
	// 18 bits reroute >98% of predicted prefixes).
	PathBits int
	// MaxDepth is the deepest encoded link position. Depth 1 is the
	// local link (identified by the primary next-hop group), so Part 1
	// holds groups for depths 2..MaxDepth.
	MaxDepth int
	// MinPrefixes is the per-link encoding threshold (1,500): links
	// carrying fewer prefixes are not worth a dictionary slot.
	MinPrefixes int
	// NHBits is the width of each next-hop group (6 bits = 64
	// next-hops, as in §5's partitioning discussion).
	NHBits int
}

// Default returns the paper's configuration.
func Default() Config {
	return Config{
		TagBits:     48,
		PathBits:    18,
		MaxDepth:    5,
		MinPrefixes: 1500,
		NHBits:      6,
	}
}

// Tag is a packed SWIFT tag. Bit 0 is the least significant bit of the
// last (deepest backup) group; groups are laid out most-significant
// first: [depth-2 links][depth-3]...[depth-MaxDepth] [primary NH]
// [backup depth-1]...[backup depth-MaxDepth].
type Tag uint64

// Rule is a ternary match over tags: a packet tag matches when
// tag & Mask == Value.
type Rule struct {
	Value Tag
	Mask  Tag
	// NextHop is the AS to forward matching packets to.
	NextHop uint32
	// Priority orders rules (higher wins); reroute rules outrank the
	// primary rules.
	Priority int
}

// Matches reports whether t satisfies r.
func (r Rule) Matches(t Tag) bool { return t&r.Mask == r.Value }

// TagAssignment is one prefix's compiled tag — one stage-1 rule. A
// slice of them in strictly ascending prefix order is the one form a
// stage-1 assignment takes from Build through the FIB to a snapshot.
type TagAssignment struct {
	Prefix netaddr.Prefix
	Tag    Tag
}

// CheckTags reports whether ts is a well-formed stage-1 assignment:
// every prefix canonical, as netaddr.MakePrefix builds it (length at
// most 32, no address bits set past the length; 0.0.0.0/0 is fine),
// and the slice strictly ascending. Every assignment that may arrive
// from outside Build, from a snapshot or a caller, passes this one
// check before a table adopts it. Callers wrap the error with the
// operation that failed.
func CheckTags(ts []TagAssignment) error {
	for i, t := range ts {
		if p := t.Prefix; p != netaddr.MakePrefix(p.Addr(), p.Len()) {
			return fmt.Errorf("stage-1 tag prefix %#x (%v) malformed at %d", uint64(p), p, i)
		}
		if i > 0 && t.Prefix <= ts[i-1].Prefix {
			return fmt.Errorf("stage-1 tags not strictly ascending at %v", t.Prefix)
		}
	}
	return nil
}

// group describes one bit field inside the tag.
type group struct {
	shift uint // bits to the right of the field
	width uint
}

func (g group) extract(t Tag) uint64 {
	if g.width == 0 {
		return 0
	}
	return (uint64(t) >> g.shift) & (1<<g.width - 1)
}

func (g group) place(v uint64) Tag { return Tag(v << g.shift) }

func (g group) mask() Tag { return Tag((uint64(1)<<g.width - 1) << g.shift) }

// Scheme is a compiled encoding: dictionaries per link depth, the
// next-hop dictionary, and the field layout. Build one from a RIB
// snapshot and a reroute plan; rebuild when BGP has reconverged.
type Scheme struct {
	cfg Config
	// linkIDs[d] maps the link at depth d+2 to its dictionary value
	// (values start at 1; 0 means "not encoded").
	linkIDs []map[topology.Link]uint64
	// linkGroups[d] is the bit field of depth d+2.
	linkGroups []group
	// nhIDs maps next-hop AS -> value (1-based).
	nhIDs map[uint32]uint64
	// nhASes inverts nhIDs.
	nhASes map[uint64]uint32
	// primary and backups[d] (depth d+1) are next-hop fields.
	primary group
	backups []group
	// tags holds the per-prefix tag assignment, ascending by prefix.
	tags []TagAssignment
	// localAS identifies the router, needed to recognize local links.
	localAS uint32
}

// Build compiles a scheme from the primary RIB and the backup plan.
func Build(cfg Config, table *rib.Table, plan *reroute.Plan) (*Scheme, error) {
	if cfg.TagBits <= 0 || cfg.TagBits > 64 {
		return nil, fmt.Errorf("encoding: tag width %d out of range", cfg.TagBits)
	}
	if cfg.MaxDepth < 2 {
		return nil, fmt.Errorf("encoding: MaxDepth %d too small", cfg.MaxDepth)
	}
	// Primary + one backup group per protected depth. Links are encoded
	// up to MaxDepth, but the deepest position is match-only: backups
	// cover depths 1..MaxDepth-1, which is exactly the paper's 48-bit
	// partition (18 path bits + 5 groups x 6 bits = 48).
	nhGroups := 1 + (cfg.MaxDepth - 1)
	nhSpace := cfg.TagBits - cfg.PathBits
	if cfg.NHBits*nhGroups > nhSpace {
		return nil, fmt.Errorf("encoding: %d next-hop groups of %d bits exceed %d available bits",
			nhGroups, cfg.NHBits, nhSpace)
	}

	s := &Scheme{
		cfg:     cfg,
		localAS: table.LocalAS(),
		nhIDs:   make(map[uint32]uint64),
		nhASes:  make(map[uint64]uint32),
		tags:    make([]TagAssignment, 0, table.Len()),
		linkIDs: make([]map[topology.Link]uint64, cfg.MaxDepth-1),
	}
	for i := range s.linkIDs {
		s.linkIDs[i] = make(map[topology.Link]uint64)
	}

	s.buildNHDict(table, plan)
	s.buildLinkDicts(table)
	s.layout()
	s.assignTags(table, plan)
	return s, nil
}

// buildNHDict collects every next-hop that appears as a primary or
// backup, most used first, keeping at most 2^NHBits-1. Primary use is
// summed per unique path (the next-hop is a property of the path, not
// the prefix).
func (s *Scheme) buildNHDict(table *rib.Table, plan *reroute.Plan) {
	use := make(map[uint32]int)
	table.ForEachPath(func(path []uint32, prefixes []netaddr.Prefix) {
		if len(path) > 0 {
			use[path[0]] += len(prefixes)
		}
	})
	if plan != nil {
		for nh, n := range plan.Assigned {
			use[nh] += n
		}
	}
	type nhUse struct {
		as uint32
		n  int
	}
	all := make([]nhUse, 0, len(use))
	for as, n := range use {
		all = append(all, nhUse{as, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].as < all[j].as
	})
	max := (1 << s.cfg.NHBits) - 1
	for i, u := range all {
		if i >= max {
			break
		}
		id := uint64(i + 1)
		s.nhIDs[u.as] = id
		s.nhASes[id] = u.as
	}
}

// buildLinkDicts fills the per-depth dictionaries under the PathBits
// budget, admitting links by descending prefix load.
func (s *Scheme) buildLinkDicts(table *rib.Table) {
	type cand struct {
		link  topology.Link
		depth int // 2-based: index into linkIDs is depth-2
		load  int
	}
	// Load per (link, depth) pair: a link may appear at several depths.
	// One pass per unique path, charging its whole prefix group at
	// once: the positional decomposition is a path property. Each link
	// owns one row of MaxDepth-1 counters in the flat loads slice, at
	// the offset off maps it to; links lists the rows in order.
	rowLen := s.cfg.MaxDepth - 1
	zeroRow := make([]int, rowLen)
	off := make(map[topology.Link]int)
	var loads []int
	var links []topology.Link
	var buf []topology.Link
	local := table.LocalAS()
	table.ForEachPath(func(path []uint32, prefixes []netaddr.Prefix) {
		buf = rib.PathLinks(buf[:0], local, path)
		for d := 2; d <= s.cfg.MaxDepth && d <= len(buf); d++ {
			l := buf[d-1]
			o, ok := off[l]
			if !ok {
				o = len(loads)
				off[l] = o
				loads = append(loads, zeroRow...)
				links = append(links, l)
			}
			loads[o+d-2] += len(prefixes)
		}
	})
	var cands []cand
	for i, l := range links {
		for di, n := range loads[i*rowLen : (i+1)*rowLen] {
			if n >= s.cfg.MinPrefixes {
				cands = append(cands, cand{link: l, depth: di + 2, load: n})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].load != cands[j].load {
			return cands[i].load > cands[j].load
		}
		if cands[i].depth != cands[j].depth {
			return cands[i].depth < cands[j].depth
		}
		if cands[i].link.A != cands[j].link.A {
			return cands[i].link.A < cands[j].link.A
		}
		return cands[i].link.B < cands[j].link.B
	})

	widths := func(counts []int) int {
		total := 0
		for _, c := range counts {
			total += widthFor(c)
		}
		return total
	}
	counts := make([]int, s.cfg.MaxDepth-1)
	for _, c := range cands {
		di := c.depth - 2
		counts[di]++
		if widths(counts) > s.cfg.PathBits {
			counts[di]-- // does not fit; try the next (lighter) candidate
			continue
		}
		s.linkIDs[di][c.link] = uint64(counts[di])
	}
}

// widthFor returns the bits needed for n dictionary entries plus the
// reserved zero value.
func widthFor(n int) int {
	if n <= 0 {
		return 0
	}
	return bits.Len(uint(n))
}

// layout assigns bit positions: link groups first (most significant),
// then primary, then backups.
func (s *Scheme) layout() {
	s.linkGroups = make([]group, len(s.linkIDs))
	s.backups = make([]group, s.cfg.MaxDepth-1)

	pos := uint(s.cfg.TagBits)
	for i, dict := range s.linkIDs {
		w := uint(widthFor(len(dict)))
		pos -= w
		s.linkGroups[i] = group{shift: pos, width: w}
	}
	nhw := uint(s.cfg.NHBits)
	// Next-hop fields start below the path budget to keep the two tag
	// parts independent (rebuilding dictionaries never moves them).
	pos = uint(s.cfg.TagBits - s.cfg.PathBits)
	pos -= nhw
	s.primary = group{shift: pos, width: nhw}
	for d := range s.backups {
		pos -= nhw
		s.backups[d] = group{shift: pos, width: nhw}
	}
}

// assignTags computes every prefix's tag. The path part — link groups
// and primary next-hop — is identical for every prefix sharing a path,
// so it is assembled once per unique path; only the per-depth backup
// groups vary per prefix (the reroute plan is per-prefix). The RIB
// yields prefixes grouped by path; one sort at the end puts the
// assignment in the canonical ascending order.
func (s *Scheme) assignTags(table *rib.Table, plan *reroute.Plan) {
	var buf []topology.Link
	local := table.LocalAS()
	table.ForEachPath(func(path []uint32, prefixes []netaddr.Prefix) {
		var pathPart Tag
		buf = rib.PathLinks(buf[:0], local, path)
		for d := 2; d <= s.cfg.MaxDepth && d <= len(buf); d++ {
			if id, ok := s.linkIDs[d-2][buf[d-1]]; ok {
				pathPart |= s.linkGroups[d-2].place(id)
			}
		}
		if len(path) > 0 {
			if id, ok := s.nhIDs[path[0]]; ok {
				pathPart |= s.primary.place(id)
			}
		}
		for _, p := range prefixes {
			t := pathPart
			if plan != nil {
				// One plan lookup per prefix; the row indexes by depth.
				bs := plan.BackupsOf(p)
				if len(bs) > len(s.backups) {
					bs = bs[:len(s.backups)]
				}
				for d, nh := range bs {
					if nh != 0 {
						if id, ok := s.nhIDs[nh]; ok {
							t |= s.backups[d].place(id)
						}
					}
				}
			}
			s.tags = append(s.tags, TagAssignment{Prefix: p, Tag: t})
		}
	})
	sortTags(s.tags)
}

// sortTags orders ts ascending by prefix with an LSD radix sort over
// 11-bit digits, skipping digits every key shares (the bits above the
// 40-bit prefix layout). It sits on the burst-end fallback path, where
// a comparison sort of a 20k-prefix table would cost more than the
// rest of the compile.
func sortTags(ts []TagAssignment) {
	if len(ts) < 2 {
		return
	}
	const mask = 1<<11 - 1
	src, dst := ts, make([]TagAssignment, len(ts))
	for shift := 0; shift < 64; shift += 11 {
		var next [mask + 1]int
		for i := range src {
			next[src[i].Prefix>>shift&mask]++
		}
		if next[src[0].Prefix>>shift&mask] == len(src) {
			continue
		}
		sum := 0
		for d, c := range next {
			next[d], sum = sum, sum+c
		}
		for _, e := range src {
			d := e.Prefix >> shift & mask
			dst[next[d]] = e
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ts[0] {
		copy(ts, src)
	}
}

// TagFor returns the tag assigned to p.
func (s *Scheme) TagFor(p netaddr.Prefix) (Tag, bool) {
	i := sort.Search(len(s.tags), func(i int) bool { return s.tags[i].Prefix >= p })
	if i == len(s.tags) || s.tags[i].Prefix != p {
		return 0, false
	}
	return s.tags[i].Tag, true
}

// Tags returns the full prefix→tag assignment (the rules for the first
// forwarding-table stage) in strictly ascending prefix order. The
// slice is owned by the scheme and must not be modified.
func (s *Scheme) Tags() []TagAssignment { return s.tags }

// NextHopID returns the dictionary value of a next-hop AS.
func (s *Scheme) NextHopID(as uint32) (uint64, bool) {
	id, ok := s.nhIDs[as]
	return id, ok
}

// LinkEncoded reports whether link l has a dictionary slot at depth d.
func (s *Scheme) LinkEncoded(l topology.Link, d int) bool {
	if d < 2 || d > s.cfg.MaxDepth {
		return false
	}
	_, ok := s.linkIDs[d-2][l]
	return ok
}

// PrimaryRule builds the default rule forwarding packets whose primary
// next-hop group equals nh's id. ok is false when nh is not in the
// dictionary.
func (s *Scheme) PrimaryRule(nh uint32) (Rule, bool) {
	id, ok := s.nhIDs[nh]
	if !ok {
		return Rule{}, false
	}
	return Rule{
		Value:    s.primary.place(id),
		Mask:     s.primary.mask(),
		NextHop:  nh,
		Priority: 0,
	}, true
}

// RerouteRules builds the high-priority rules that divert every prefix
// whose path crosses any of the inferred links at any encoded depth,
// matching (link-at-depth, backup-next-hop) pairs as in §3.2's example:
//
//	match(tag: *01** ***1*) >> fwd(3)
//
// One rule is emitted per (link, depth, distinct backup id) triple.
func (s *Scheme) RerouteRules(links []topology.Link) []Rule {
	var rules []Rule
	seen := make(map[Rule]bool)
	for _, l := range links {
		// Depth 1 (the local link) is identified by the primary group.
		// Only depths with a backup group are actionable.
		for d := 1; d <= len(s.backups); d++ {
			var matchVal, matchMask Tag
			if d == 1 {
				// Depth 1 is a LOCAL link (local AS, neighbor): packets
				// crossing it are exactly those whose primary next-hop
				// is the far endpoint, so match the primary group. Links
				// not incident to the local AS have no depth-1 meaning.
				if !l.Has(s.localAS) {
					continue
				}
				nh := l.Other(s.localAS)
				if s.nhIDs[nh] == 0 {
					continue
				}
				matchVal = s.primary.place(s.nhIDs[nh])
				matchMask = s.primary.mask()
			} else {
				id, ok := s.linkIDs[d-2][l]
				if !ok {
					continue
				}
				matchVal = s.linkGroups[d-2].place(id)
				matchMask = s.linkGroups[d-2].mask()
			}
			// One rule per backup id in use at this depth.
			bg := s.backups[d-1]
			for id, as := range s.nhASes {
				r := Rule{
					Value:    matchVal | bg.place(id),
					Mask:     matchMask | bg.mask(),
					NextHop:  as,
					Priority: 10,
				}
				if !seen[r] {
					seen[r] = true
					rules = append(rules, r)
				}
			}
		}
	}
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Value != rules[j].Value {
			return rules[i].Value < rules[j].Value
		}
		return rules[i].Mask < rules[j].Mask
	})
	return rules
}

// Reroutable reports whether prefix p would be matched by the reroute
// rules for the given links — i.e., whether its path crosses one of
// them at an encoded depth AND a backup next-hop is encoded for that
// depth. This is the per-prefix predicate behind Fig. 7's encoding
// performance.
func (s *Scheme) Reroutable(p netaddr.Prefix, links []topology.Link, table *rib.Table) bool {
	path := table.Path(p)
	if path == nil {
		return false
	}
	var buf [16]topology.Link
	pls := rib.PathLinks(buf[:0], table.LocalAS(), path)
	t, _ := s.TagFor(p)
	for d := 1; d <= len(pls) && d <= len(s.backups); d++ {
		hit := false
		for _, l := range links {
			if pls[d-1] == l {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		if d == 1 {
			// Local link: always identified via the primary group.
			if s.backups[0].extract(t) != 0 && s.primary.extract(t) != 0 {
				return true
			}
			continue
		}
		if s.LinkEncoded(pls[d-1], d) && s.backups[d-1].extract(t) != 0 {
			return true
		}
	}
	return false
}

// PathBitsUsed reports how many Part-1 bits the dictionaries consumed.
func (s *Scheme) PathBitsUsed() int {
	total := 0
	for _, g := range s.linkGroups {
		total += int(g.width)
	}
	return total
}

// Stats summarizes a scheme.
type Stats struct {
	EncodedLinks   int
	PathBitsUsed   int
	NextHops       int
	TaggedPrefixes int
}

// Stats returns summary counters.
func (s *Scheme) Stats() Stats {
	n := 0
	for _, d := range s.linkIDs {
		n += len(d)
	}
	return Stats{
		EncodedLinks:   n,
		PathBitsUsed:   s.PathBitsUsed(),
		NextHops:       len(s.nhIDs),
		TaggedPrefixes: len(s.tags),
	}
}
