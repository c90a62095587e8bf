// Package dataplane simulates the two-stage forwarding table SWIFT
// requires (§3.2): stage 1 maps destination prefixes to tags (the
// embedding a real router performs by rewriting the destination MAC),
// stage 2 forwards on prioritized ternary matches over those tags. The
// package also carries the update-latency model used throughout the
// evaluation: per-rule write costs between 128 and 282 µs, the range
// reported by [24, 64] and used in §3.2 and §6.5.
package dataplane

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"swift/internal/encoding"
	"swift/internal/netaddr"
)

// Update-cost constants from the paper's sources.
const (
	// MinRuleUpdate and MaxRuleUpdate bound the per-rule write cost
	// reported by prior measurement studies [24, 64].
	MinRuleUpdate = 128 * time.Microsecond
	MaxRuleUpdate = 282 * time.Microsecond
	// DefaultRuleUpdate is the midpoint used when no cost is configured.
	DefaultRuleUpdate = 205 * time.Microsecond
)

// Config parameterizes the FIB model.
type Config struct {
	// RuleUpdateCost is the modeled latency of one rule write (stage 1
	// or stage 2). Zero selects DefaultRuleUpdate.
	RuleUpdateCost time.Duration
}

func (c Config) cost() time.Duration {
	if c.RuleUpdateCost <= 0 {
		return DefaultRuleUpdate
	}
	return c.RuleUpdateCost
}

// FIB is the simulated two-stage forwarding table. Stage 1 (see
// Poptrie) is one strictly ascending slice of tag entries — the store
// that iteration, exact match, the deterministic Dump and Export read —
// indexed for longest-prefix match by a 16-bit direct-index root array
// with compressed popcount-indexed deeper levels. Stage 2 is a
// priority-ordered ternary rule list over the tags stage 1 produces.
type FIB struct {
	cfg    Config
	stage1 Poptrie
	stage2 []encoding.Rule

	// batchTags is the scratch stage-1 output of the batched forwarding
	// path, grown to the largest burst seen.
	batchTags []encoding.Tag

	writes  int
	elapsed time.Duration
}

// New returns an empty FIB.
func New(cfg Config) *FIB {
	return &FIB{cfg: cfg}
}

// charge accounts n rule writes.
func (f *FIB) charge(n int) {
	f.writes += n
	f.elapsed += time.Duration(n) * f.cfg.cost()
}

// Writes returns the total number of rule writes performed.
func (f *FIB) Writes() int { return f.writes }

// Elapsed returns the modeled time the writes took. This is the number
// a hardware FIB would spend, not wall-clock time of the simulation.
func (f *FIB) Elapsed() time.Duration { return f.elapsed }

// ResetAccounting zeroes the write counters (e.g., after initial
// provisioning, to measure only the failure reaction).
func (f *FIB) ResetAccounting() {
	f.writes = 0
	f.elapsed = 0
}

// SetTag installs or updates the stage-1 tagging rule for p.
func (f *FIB) SetTag(p netaddr.Prefix, t encoding.Tag) {
	f.stage1.Insert(p, t)
	f.charge(1)
}

// ReplaceTags swaps in a complete stage-1 assignment, charging one
// write per entry — the accounting a rebuild via SetTag would produce.
// tags must pass encoding.CheckTags (canonical prefixes in strictly
// ascending order, as Scheme.Tags returns them); a violation is
// reported and leaves the FIB unchanged. The slice is only read during
// the call: it is copied into the previous assignment's buffer, so a
// burst-end re-provision of a table that has not grown allocates
// nothing here, and the lookup index is rebuilt on the next read.
func (f *FIB) ReplaceTags(tags []TagEntry) error {
	if err := f.stage1.Replace(tags); err != nil {
		return err
	}
	f.charge(len(tags))
	return nil
}

// RemoveTag deletes p's stage-1 rule.
func (f *FIB) RemoveTag(p netaddr.Prefix) {
	if f.stage1.Delete(p) {
		f.charge(1)
	}
}

// TagOf looks up the stage-1 tag by longest-prefix match on addr.
func (f *FIB) TagOf(addr uint32) (encoding.Tag, bool) {
	return f.stage1.Lookup(addr)
}

// InstallRule adds a stage-2 rule. Rules with higher Priority win;
// within a priority, earlier installation wins.
func (f *FIB) InstallRule(r encoding.Rule) { f.InstallRules([]encoding.Rule{r}) }

// InstallRules adds a batch of stage-2 rules in the order installing
// them one by one would leave: one stable sort of the appended batch,
// which moves nothing that is already in match order.
func (f *FIB) InstallRules(rs []encoding.Rule) {
	f.stage2 = append(f.stage2, rs...)
	slices.SortStableFunc(f.stage2, func(a, b encoding.Rule) int { return cmp.Compare(b.Priority, a.Priority) })
	f.charge(len(rs))
}

// RemoveRulesAt deletes every stage-2 rule with the given priority —
// SWIFT's fallback once BGP has reconverged (§3).
func (f *FIB) RemoveRulesAt(priority int) int {
	kept := f.stage2[:0]
	removed := 0
	for _, r := range f.stage2 {
		if r.Priority == priority {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	f.stage2 = kept
	f.charge(removed)
	return removed
}

// NumRules returns the stage-2 rule count.
func (f *FIB) NumRules() int { return len(f.stage2) }

// NumTags returns the stage-1 entry count (tagged prefixes) — with
// NumRules, the FIB-occupancy pair the ops plane exports per peer.
func (f *FIB) NumTags() int { return f.stage1.Len() }

// Forward runs the full pipeline for a packet to addr: stage-1 tag
// lookup, then the highest-priority matching stage-2 rule. ok is false
// when the packet would be dropped (no tag or no matching rule).
func (f *FIB) Forward(addr uint32) (nextHop uint32, ok bool) {
	nextHop, _, ok = f.ForwardDetail(addr)
	return nextHop, ok
}

// ForwardDetail is Forward returning also the priority of the matched
// stage-2 rule, so evaluation harnesses can attribute a delivery to the
// rule class that produced it (primary route vs fast-reroute override).
func (f *FIB) ForwardDetail(addr uint32) (nextHop uint32, priority int, ok bool) {
	t, ok := f.stage1.Lookup(addr)
	if !ok {
		return 0, 0, false
	}
	for _, r := range f.stage2 {
		if r.Matches(t) {
			return r.NextHop, r.Priority, true
		}
	}
	return 0, 0, false
}

// ForwardPrefix is Forward for a prefix's first address, convenient in
// tests and experiments that reason per prefix.
func (f *FIB) ForwardPrefix(p netaddr.Prefix) (uint32, bool) {
	return f.Forward(p.Addr())
}

// ForwardBatch runs the full pipeline for a burst of packets in one
// call: nh[i], ok[i] receive what Forward(addrs[i]) would return. nh
// and ok must be at least len(addrs) long. One batched stage-1 pass
// resolves every tag before stage-2 matching, amortizing per-packet
// call overhead the way NDN-DPDK forwards in bursts.
func (f *FIB) ForwardBatch(addrs []uint32, nh []uint32, ok []bool) {
	tags := f.stageOne(addrs, ok)
	nh = nh[:len(addrs)]
	rules := f.stage2
	for i := range addrs {
		if !ok[i] {
			nh[i] = 0
			continue
		}
		t := tags[i]
		matched := false
		for _, r := range rules {
			if t&r.Mask == r.Value {
				nh[i], matched = r.NextHop, true
				break
			}
		}
		if !matched {
			nh[i], ok[i] = 0, false
		}
	}
}

// ForwardDetailBatch is ForwardBatch returning also each packet's
// matched stage-2 priority, the batched counterpart of ForwardDetail.
// nh, prio and ok must be at least len(addrs) long.
func (f *FIB) ForwardDetailBatch(addrs []uint32, nh []uint32, prio []int, ok []bool) {
	tags := f.stageOne(addrs, ok)
	nh = nh[:len(addrs)]
	prio = prio[:len(addrs)]
	rules := f.stage2
	for i := range addrs {
		if !ok[i] {
			nh[i], prio[i] = 0, 0
			continue
		}
		t := tags[i]
		matched := false
		for _, r := range rules {
			if t&r.Mask == r.Value {
				nh[i], prio[i], matched = r.NextHop, r.Priority, true
				break
			}
		}
		if !matched {
			nh[i], prio[i], ok[i] = 0, 0, false
		}
	}
}

// stageOne resolves a burst of stage-1 lookups into the FIB's scratch
// tag buffer, returning it sized to the burst.
func (f *FIB) stageOne(addrs []uint32, ok []bool) []encoding.Tag {
	if cap(f.batchTags) < len(addrs) {
		f.batchTags = make([]encoding.Tag, len(addrs))
	}
	tags := f.batchTags[:len(addrs)]
	f.stage1.LookupBatch(addrs, tags, ok)
	return tags
}

// Dump renders the complete forwarding state deterministically: every
// stage-1 entry in ascending prefix order, then every stage-2 rule in
// match order (the order the hardware would try them). Two FIBs with
// identical dumps forward identically, which is what the provision-skip
// equivalence tests pin.
func (f *FIB) Dump() string {
	var b strings.Builder
	f.stage1.ForEach(func(p netaddr.Prefix, t encoding.Tag) {
		fmt.Fprintf(&b, "tag %s %#x\n", p, uint64(t))
	})
	for _, r := range f.stage2 {
		fmt.Fprintf(&b, "rule %#x/%#x -> %d @%d\n", uint64(r.Value), uint64(r.Mask), r.NextHop, r.Priority)
	}
	return b.String()
}
