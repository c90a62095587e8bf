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
	"cmp"
	"fmt"
	"math/bits"
	"slices"
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

	// scratch is Rebuild's working set, kept between passes.
	scratch buildScratch
}

// buildScratch holds the intermediate tables of one compile.
type buildScratch struct {
	nhUse  map[uint32]int
	nhRank []nhUse
	// linkOff, loads and links are the per-(link, depth) prefix loads;
	// see buildLinkDicts.
	linkOff map[topology.Link]int
	loads   []int
	links   []topology.Link
	cands   []linkCand
	counts  []int
	buf     []topology.Link
	// groupBits and rowBits are the tag parts of each plan group (link
	// groups and primary next-hop) and of each backup row.
	groupBits []Tag
	rowBits   []Tag
}

type nhUse struct {
	as uint32
	n  int
}

type linkCand struct {
	link  topology.Link
	depth int // 2-based: index into linkIDs is depth-2
	load  int
}

// Build compiles a scheme from the primary RIB and the backup plan.
//
// The plan must have been computed from table in its current state:
// Build returns an error when the table's routes changed after
// reroute.Compute, and for a plan restored from a snapshot. A nil plan
// encodes no backups.
func Build(cfg Config, table *rib.Table, plan *reroute.Plan) (*Scheme, error) {
	s := new(Scheme)
	if err := s.Rebuild(cfg, table, plan); err != nil {
		return nil, err
	}
	return s, nil
}

// check reports whether cfg lays out a tag: every width in range, so
// no field shift is negative or past the tag, and the next-hop groups
// within the bits the path part leaves. Build and RestoreScheme both
// run it before they place a field.
func (cfg Config) check() error {
	switch {
	case cfg.TagBits <= 0 || cfg.TagBits > 64:
		return fmt.Errorf("tag width %d out of range [1,64]", cfg.TagBits)
	case cfg.PathBits < 0 || cfg.PathBits > cfg.TagBits:
		return fmt.Errorf("path bits %d out of range [0,%d]", cfg.PathBits, cfg.TagBits)
	case cfg.NHBits <= 0 || cfg.NHBits > cfg.TagBits:
		return fmt.Errorf("next-hop bits %d out of range [1,%d]", cfg.NHBits, cfg.TagBits)
	case cfg.MaxDepth < 2 || cfg.MaxDepth > cfg.TagBits:
		return fmt.Errorf("MaxDepth %d out of range [2,%d]", cfg.MaxDepth, cfg.TagBits)
	}
	// Primary + one backup group per protected depth. Links are encoded
	// up to MaxDepth, but the deepest position is match-only: backups
	// cover depths 1..MaxDepth-1, which is exactly the paper's 48-bit
	// partition (18 path bits + 5 groups x 6 bits = 48).
	nhGroups := 1 + (cfg.MaxDepth - 1)
	if nhSpace := cfg.TagBits - cfg.PathBits; cfg.NHBits*nhGroups > nhSpace {
		return fmt.Errorf("%d next-hop groups of %d bits exceed %d available bits",
			nhGroups, cfg.NHBits, nhSpace)
	}
	return nil
}

// Rebuild is Build into s, reusing the tag slice, dictionaries and
// scratch of its previous compile, so it overwrites the tags an earlier
// Tags or Export returned. On error s must not be used until a later
// Rebuild succeeds.
func (s *Scheme) Rebuild(cfg Config, table *rib.Table, plan *reroute.Plan) error {
	if err := cfg.check(); err != nil {
		return fmt.Errorf("encoding: %w", err)
	}
	if plan == nil {
		plan = reroute.Compute(table.LocalAS(), table, nil, nil, cfg.MaxDepth)
	} else if !plan.ComputedFrom(table) {
		return fmt.Errorf("encoding: the plan was not computed from this table in its current state")
	}

	s.cfg = cfg
	s.localAS = table.LocalAS()
	s.nhIDs = clearMap(s.nhIDs)
	s.nhASes = clearMap(s.nhASes)
	if len(s.linkIDs) != cfg.MaxDepth-1 {
		s.linkIDs = make([]map[topology.Link]uint64, cfg.MaxDepth-1)
	}
	for i := range s.linkIDs {
		s.linkIDs[i] = clearMap(s.linkIDs[i])
	}

	s.buildNHDict(table, plan)
	s.buildLinkDicts(table)
	s.layout()
	s.assignTags(table, plan)
	return nil
}

// clearMap empties m, making it when nil.
func clearMap[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return make(map[K]V)
	}
	clear(m)
	return m
}

// buildNHDict collects every next-hop that appears as a primary or
// backup, most used first, keeping at most 2^NHBits-1. Primary use is
// summed per unique path (the next-hop is a property of the path, not
// the prefix).
func (s *Scheme) buildNHDict(table *rib.Table, plan *reroute.Plan) {
	sc := &s.scratch
	use := clearMap(sc.nhUse)
	sc.nhUse = use
	table.ForEachPath(func(path []uint32, prefixes []netaddr.Prefix) {
		if len(path) > 0 {
			use[path[0]] += len(prefixes)
		}
	})
	for nh, n := range plan.Assigned {
		use[nh] += n
	}
	all := sc.nhRank[:0]
	for as, n := range use {
		all = append(all, nhUse{as, n})
	}
	sc.nhRank = all
	slices.SortFunc(all, func(a, b nhUse) int {
		if c := cmp.Compare(b.n, a.n); c != 0 {
			return c
		}
		return cmp.Compare(a.as, b.as)
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
	// Load per (link, depth) pair: a link may appear at several depths.
	// One pass per unique path, charging its whole prefix group at
	// once: the positional decomposition is a path property. Each link
	// owns one row of MaxDepth-1 counters in the flat loads slice, at
	// the offset off maps it to; links lists the rows in order.
	sc := &s.scratch
	rowLen := s.cfg.MaxDepth - 1
	off := clearMap(sc.linkOff)
	sc.linkOff = off
	loads, links, buf := sc.loads[:0], sc.links[:0], sc.buf
	local := table.LocalAS()
	table.ForEachPath(func(path []uint32, prefixes []netaddr.Prefix) {
		buf = rib.PathLinks(buf[:0], local, path)
		for d := 2; d <= s.cfg.MaxDepth && d <= len(buf); d++ {
			l := buf[d-1]
			o, ok := off[l]
			if !ok {
				o = len(loads)
				off[l] = o
				loads = slices.Grow(loads, rowLen)[:o+rowLen]
				clear(loads[o:])
				links = append(links, l)
			}
			loads[o+d-2] += len(prefixes)
		}
	})
	sc.loads, sc.links, sc.buf = loads, links, buf
	cands := sc.cands[:0]
	for i, l := range links {
		for di, n := range loads[i*rowLen : (i+1)*rowLen] {
			if n >= s.cfg.MinPrefixes {
				cands = append(cands, linkCand{link: l, depth: di + 2, load: n})
			}
		}
	}
	sc.cands = cands
	slices.SortFunc(cands, func(a, b linkCand) int {
		if c := cmp.Compare(b.load, a.load); c != 0 {
			return c
		}
		if c := cmp.Compare(a.depth, b.depth); c != 0 {
			return c
		}
		if c := cmp.Compare(a.link.A, b.link.A); c != 0 {
			return c
		}
		return cmp.Compare(a.link.B, b.link.B)
	})

	widths := func(counts []int) int {
		total := 0
		for _, c := range counts {
			total += widthFor(c)
		}
		return total
	}
	counts := slices.Grow(sc.counts[:0], rowLen)[:rowLen]
	clear(counts)
	sc.counts = counts
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
	// Every field is assigned below.
	s.linkGroups = slices.Grow(s.linkGroups[:0], len(s.linkIDs))[:len(s.linkIDs)]
	s.backups = slices.Grow(s.backups[:0], s.cfg.MaxDepth-1)[:s.cfg.MaxDepth-1]

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
// and primary next-hop — is a property of the primary path, so it is
// assembled once per plan group; the backup part once per plan row.
// A prefix's tag is its group's part or'ed with its row's, and the
// plan lists prefixes ascending, so the assignment comes out in the
// canonical order with no sort.
func (s *Scheme) assignTags(table *rib.Table, plan *reroute.Plan) {
	sc := &s.scratch
	buf := sc.buf
	groupBits := slices.Grow(sc.groupBits[:0], table.NumLivePaths())
	plan.ForEachGroup(func(path []uint32) {
		var pathPart Tag
		buf = rib.PathLinks(buf[:0], s.localAS, path)
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
		groupBits = append(groupBits, pathPart)
	})
	rowBits := slices.Grow(sc.rowBits[:0], plan.BackupRows())
	plan.ForEachRow(func(row []uint32) {
		var t Tag
		if len(row) > len(s.backups) {
			row = row[:len(s.backups)]
		}
		for d, nh := range row {
			if nh != 0 {
				if id, ok := s.nhIDs[nh]; ok {
					t |= s.backups[d].place(id)
				}
			}
		}
		rowBits = append(rowBits, t)
	})
	sc.buf, sc.groupBits, sc.rowBits = buf, groupBits, rowBits
	tags := slices.Grow(s.tags[:0], plan.Len())
	plan.ForEachEntry(func(p netaddr.Prefix, g, r int) {
		tags = append(tags, TagAssignment{Prefix: p, Tag: groupBits[g] | rowBits[r]})
	})
	s.tags = tags
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
				rules = append(rules, Rule{
					Value:    matchVal | bg.place(id),
					Mask:     matchMask | bg.mask(),
					NextHop:  as,
					Priority: 10,
				})
			}
		}
	}
	// A link listed twice yields its rules twice; sorting puts the
	// copies side by side for Compact.
	slices.SortFunc(rules, func(a, b Rule) int {
		if c := cmp.Compare(a.Value, b.Value); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Mask, b.Mask); c != 0 {
			return c
		}
		if c := cmp.Compare(a.NextHop, b.NextHop); c != 0 {
			return c
		}
		return cmp.Compare(a.Priority, b.Priority)
	})
	return slices.Compact(rules)
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
