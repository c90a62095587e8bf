// Package inference implements the SWIFT inference algorithm of §4:
// Withdrawal Share and Path Share per AS link, their weighted-geometric-
// mean Fit Score, greedy aggregation of links sharing an endpoint (for
// concurrent failures such as router outages), and the adaptive
// triggering policy that trades speed for plausibility against history.
//
// The tracker runs on the interned RIB core: withdrawn paths are kept
// alive by reference for the duration of a burst, W(l, t) is a dense
// per-LinkID counter, withdrawn prefixes are grouped per path in dense
// slots numbered by first withdrawal, and every set union the
// aggregation step needs is computed by testing the handful of unique
// paths against the link set instead of folding per-prefix hash sets.
// Steady-state observation allocates nothing, and neither does a new
// burst whose withdrawals land on other paths than the last one's:
// Reset empties the groups in place, and the next burst's k-th path
// fills the array slot k kept, whatever its PathID.
package inference

import (
	"math"
	"sort"
	"sync/atomic"

	"swift/internal/flatmap"
	"swift/internal/netaddr"
	"swift/internal/rib"
	"swift/internal/stats"
	"swift/internal/topology"
)

// Config holds the algorithm's tunables with the paper's defaults.
type Config struct {
	// WWS and WPS weight Withdrawal Share and Path Share in the Fit
	// Score. The paper's calibration found WWS = 3·WPS best (§4.2).
	WWS, WPS float64
	// TriggerEvery is the number of received withdrawals between
	// inference attempts (2,500 in the paper).
	TriggerEvery int
	// AcceptAlways is the received-withdrawal count past which an
	// inference is accepted regardless of history (20,000).
	AcceptAlways int
	// Plausibility maps received-withdrawal brackets to the maximum
	// predicted burst size history considers plausible (§4.2). Entries
	// must be sorted by Received ascending.
	Plausibility []PlausibilityRule
	// UseHistory enables the plausibility gate (Fig. 6b vs 6a).
	UseHistory bool
	// TieEpsilon treats Fit Scores within this relative distance of the
	// maximum as tied, returning all of them (the conservative strategy
	// when the failed link cannot be determined univocally).
	TieEpsilon float64
}

// PlausibilityRule is one row of §4.2's table: after Received
// withdrawals, accept if the predicted total is at most MaxPredicted.
type PlausibilityRule struct {
	Received     int
	MaxPredicted int
}

// Default returns the paper's configuration.
func Default() Config {
	return Config{
		WWS:          3,
		WPS:          1,
		TriggerEvery: 2500,
		AcceptAlways: 20000,
		Plausibility: []PlausibilityRule{
			{Received: 2500, MaxPredicted: 10000},
			{Received: 5000, MaxPredicted: 20000},
			{Received: 7500, MaxPredicted: 50000},
			{Received: 10000, MaxPredicted: 100000},
		},
		UseHistory: true,
		TieEpsilon: 1e-9,
	}
}

// LinkScore is one link's metrics at inference time.
type LinkScore struct {
	Link topology.Link
	W    int // withdrawn prefixes whose path crossed the link
	P    int // prefixes still routed across the link
	WS   float64
	PS   float64
	FS   float64
}

// Tracker accumulates burst state against a session RIB. Feed every
// message of the stream through ObserveWithdraw/ObserveAnnounce (they
// also maintain the RIB), call Reset at burst boundaries, and Infer
// whenever a decision is wanted.
type Tracker struct {
	cfg Config
	rib *rib.Table
	// totalW counts withdrawals received in the burst, including those
	// for prefixes the RIB did not know (they contribute to W(t) — the
	// denominator — as in the paper, where every received withdrawal is
	// information).
	totalW int

	// wCount is W(l, t) by dense LinkID; wLinks lists the links with a
	// non-zero counter (the burst's touched set). Both persist across
	// Reset — counters are zeroed through the touched list, never
	// reallocated.
	wCount []int32
	wLinks []rib.LinkID

	// wPaths holds one owned reference per unique path withdrawn this
	// burst, in first-withdrawal order, pinning its PathID for the
	// burst's lifetime; wGroups[k] holds the prefixes withdrawn over
	// wPaths[k]. Set unions over withdrawn prefixes — the multi-link
	// aggregation of §4.2 — test each of these few paths against the
	// link set and sum group sizes.
	//
	// wSlot maps a pool-scoped PathID to its slot plus one: 4 bytes per
	// id the pool has numbered, the tracker's only per-path structure
	// sized by the fleet rather than by its own burst. An entry counts
	// only while it names a slot below len(wPaths) whose path has that
	// id, so Reset never clears it. Reset truncates the groups in place;
	// the next burst's k-th path takes slot k and refills its array, so
	// bursts over other PathIDs reuse this burst's arrays instead of
	// growing new ones.
	wPaths  []rib.PathHandle
	wGroups [][]netaddr.Prefix
	wSlot   []uint32

	// wSeen records each withdrawn prefix's path; multi lists, for the
	// rare prefix withdrawn more than once in a burst (path exploration:
	// withdraw, re-announce, withdraw), every path it was withdrawn
	// with. Unions dedup exactly with it, without per-prefix hash sets.
	// wSeen is probed once per withdrawal, so it uses the flat map.
	wSeen flatmap.Map[netaddr.Prefix, rib.PathHandle]
	multi map[netaddr.Prefix][]rib.PathHandle

	// Incremental scoring state. ord keeps the burst's touched links
	// sorted by kval, a totalW-free rank key (see keyOf) whose order
	// equals Fit-Score order but does not move as more withdrawals
	// arrive. Links whose W or P inputs changed since the last Infer are
	// collected in dirty (dirtyOn dedups); an Infer re-scores only
	// those and merges them back, so repeated in-burst inference stops
	// recomputing the whole candidate set from scratch.
	ord     []rib.LinkID
	ord2    []rib.LinkID
	kval    []float64
	dirty   []rib.LinkID
	dirtyOn []bool
	ordered bool
	sorter  ordSorter

	// pickOrdered scratch: the tie set, one candidate set per endpoint,
	// and the candidate-extension buffer. Reused across calls so a
	// repeated in-burst Infer allocates only its Result.
	linksA []topology.Link
	linksB []topology.Link
	linksC []topology.Link
	cand   []topology.Link

	// scratch
	idBuf []rib.LinkID
	set   rib.LinkSet
}

// NewTracker wraps a session RIB and registers itself as the table's
// link observer (a table feeds at most one tracker).
func NewTracker(cfg Config, table *rib.Table) *Tracker {
	t := &Tracker{
		cfg:   cfg,
		rib:   table,
		multi: make(map[netaddr.Prefix][]rib.PathHandle),
	}
	t.sorter.t = t
	table.SetLinkObserver(t.linkTouched)
	return t
}

// linkTouched is the RIB's P(l, t)-change hook: a burst-scored link
// whose still-routed count moved must be re-ranked at the next Infer.
func (t *Tracker) linkTouched(id rib.LinkID) {
	if int(id) < len(t.wCount) && t.wCount[id] > 0 {
		t.markDirty(id)
	}
}

// markDirty queues id for re-scoring (deduplicated) and keeps the
// dense per-link rank arrays sized.
func (t *Tracker) markDirty(id rib.LinkID) {
	if int(id) >= len(t.dirtyOn) {
		n := int(id) + 1 + int(id)/2
		grownB := make([]bool, n)
		copy(grownB, t.dirtyOn)
		t.dirtyOn = grownB
		grownK := make([]float64, n)
		copy(grownK, t.kval)
		t.kval = grownK
	}
	if !t.dirtyOn[id] {
		t.dirtyOn[id] = true
		t.dirty = append(t.dirty, id)
	}
}

// RIB returns the underlying table.
func (t *Tracker) RIB() *rib.Table { return t.rib }

// Received returns the number of withdrawals observed since Reset.
func (t *Tracker) Received() int { return t.totalW }

// Reset clears burst state (on burst end, or after rerouting when BGP
// has reconverged), reusing every buffer: counters are zeroed through
// the touched lists, prefix groups are truncated in place for the next
// burst, and the held path references go back to the pool.
func (t *Tracker) Reset() {
	for _, id := range t.wLinks {
		t.wCount[id] = 0
	}
	t.wLinks = t.wLinks[:0]
	for k, h := range t.wPaths {
		t.wGroups[k] = t.wGroups[k][:0]
		t.rib.ReleaseHandle(h)
	}
	t.wPaths = t.wPaths[:0]
	t.wSeen.Clear()
	clear(t.multi)
	t.totalW = 0
	t.clearDirty()
	t.ord = t.ord[:0]
	t.ordered = false
}

func (t *Tracker) clearDirty() {
	for _, id := range t.dirty {
		t.dirtyOn[id] = false
	}
	t.dirty = t.dirty[:0]
}

// ObserveWithdraw processes one withdrawal: it charges the prefix's
// current links with the withdrawal and removes the route. Steady
// state this allocates nothing — the withdrawn path's links come
// precomputed from the pool and land in reused counters and groups.
func (t *Tracker) ObserveWithdraw(p netaddr.Prefix) {
	t.totalW++
	h, ok := t.rib.WithdrawHandle(p)
	if !ok {
		return
	}
	t.idBuf = t.rib.AppendPathLinkIDs(t.idBuf[:0], h)
	for _, id := range t.idBuf {
		t.growW(id)
		if t.wCount[id] == 0 {
			t.wLinks = append(t.wLinks, id)
		}
		t.wCount[id]++
		t.markDirty(id)
	}
	k := t.wSlotOf(h.ID())
	if k == len(t.wPaths) {
		t.wPaths = append(t.wPaths, h) // first touch: keep the reference
		if k == len(t.wGroups) {
			t.wGroups = append(t.wGroups, nil)
		}
	} else {
		t.rib.ReleaseHandle(h) // burst already holds one
	}
	t.wGroups[k] = append(t.wGroups[k], p)

	// Duplicate-withdrawal bookkeeping for exact unions. First-withdrawal
	// is the overwhelmingly common case, so it pays exactly one flat-map
	// probe; the multi index is only consulted on a repeat.
	if prev, seen := t.wSeen.Get(p); seen {
		if lst, ok := t.multi[p]; ok {
			t.multi[p] = append(lst, h)
		} else {
			t.multi[p] = []rib.PathHandle{prev, h}
		}
	} else {
		t.wSeen.Put(p, h)
	}
}

// wSlotOf returns the slot of id's group this burst, or len(wPaths)
// — the next free slot, now mapped to id — when id has none yet.
func (t *Tracker) wSlotOf(id rib.PathID) int {
	if int(id) >= len(t.wSlot) {
		grown := make([]uint32, int(id)+1+int(id)/8)
		copy(grown, t.wSlot)
		t.wSlot = grown
	} else if k := int(t.wSlot[id]) - 1; k >= 0 && k < len(t.wPaths) && t.wPaths[k].ID() == id {
		return k
	}
	k := len(t.wPaths)
	t.wSlot[id] = uint32(k + 1)
	return k
}

func (t *Tracker) growW(id rib.LinkID) {
	if int(id) >= len(t.wCount) {
		grown := make([]int32, int(id)+1+int(id)/2)
		copy(grown, t.wCount)
		t.wCount = grown
	}
}

// ObserveAnnounce processes one announcement (a new or changed path).
// Path updates move P(l) — they carry the implicit information that the
// prefix's old links still work for it, which is exactly what drives
// PS apart for the failed link versus its neighbors.
func (t *Tracker) ObserveAnnounce(p netaddr.Prefix, path []uint32) {
	t.rib.Announce(p, path)
}

// RankKey is the canonical candidate-ordering key: WWS·ln W(l) +
// WPS·ln PS(l). The Fit Score is the monotone transform
// exp((key − WWS·ln W(t)) / (WWS+WPS)), so ordering by key equals
// ordering by Fit Score wherever two scores differ as real numbers —
// but unlike the score itself, the key does not move as W(t) grows,
// which is what lets clean links keep their sorted position across
// Infer calls while only dirtied links re-rank. It is exported so model
// tests order their reference scores by the exact same float
// computation (small-integer W/P combinations produce mathematically
// tied scores routinely; the key is the tie domain).
func RankKey(wws, wps, w, p float64) float64 {
	return wws*math.Log(w) + wps*math.Log(w/(w+p))
}

// keyOf evaluates RankKey on one link's counters.
func (t *Tracker) keyOf(id rib.LinkID) float64 {
	w := float64(t.wCount[id])
	p := float64(t.rib.OnLinkID(id))
	return RankKey(t.cfg.WWS, t.cfg.WPS, w, p)
}

// rankLess is the candidate order: rank key descending, ties by link
// for determinism (the same tiebreak a Fit-Score sort uses, since equal
// (W, P) inputs produce bitwise-equal keys and scores).
func (t *Tracker) rankLess(a, b rib.LinkID) bool {
	ka, kb := t.kval[a], t.kval[b]
	if ka != kb {
		return ka > kb
	}
	la, lb := t.rib.LinkByID(a), t.rib.LinkByID(b)
	if la.A != lb.A {
		return la.A < lb.A
	}
	return la.B < lb.B
}

// ordSorter sorts a LinkID slice by rankLess without allocating (the
// tracker embeds one and hands sort.Sort its pointer).
type ordSorter struct {
	t   *Tracker
	ids []rib.LinkID
}

func (s *ordSorter) Len() int           { return len(s.ids) }
func (s *ordSorter) Swap(i, j int)      { s.ids[i], s.ids[j] = s.ids[j], s.ids[i] }
func (s *ordSorter) Less(i, j int) bool { return s.t.rankLess(s.ids[i], s.ids[j]) }

func (t *Tracker) sortIDs(ids []rib.LinkID) {
	t.sorter.ids = ids
	sort.Sort(&t.sorter)
	t.sorter.ids = nil
}

// refreshOrder brings ord up to date: a full build on the first use of
// a burst, then incremental — only links dirtied since the last call
// are re-keyed (in parallel past the grain) and merged back into the
// clean remainder.
func (t *Tracker) refreshOrder() {
	if !t.ordered {
		t.ord = append(t.ord[:0], t.wLinks...)
		for _, id := range t.ord {
			t.markDirty(id) // sizes kval
		}
		parallelFor(len(t.ord), linkGrain, func(lo, hi int) {
			for _, id := range t.ord[lo:hi] {
				t.kval[id] = t.keyOf(id)
			}
		})
		t.sortIDs(t.ord)
		t.clearDirty()
		t.ordered = true
		return
	}
	if len(t.dirty) == 0 {
		return
	}
	d := t.dirty
	parallelFor(len(d), linkGrain, func(lo, hi int) {
		for _, id := range d[lo:hi] {
			t.kval[id] = t.keyOf(id)
		}
	})
	// Drop the dirtied links from the clean order, sort just them, and
	// merge the two runs.
	keep := t.ord[:0]
	for _, id := range t.ord {
		if !t.dirtyOn[id] {
			keep = append(keep, id)
		}
	}
	t.sortIDs(d)
	out := t.ord2[:0]
	i, j := 0, 0
	for i < len(keep) && j < len(d) {
		if t.rankLess(d[j], keep[i]) {
			out = append(out, d[j])
			j++
		} else {
			out = append(out, keep[i])
			i++
		}
	}
	out = append(out, keep[i:]...)
	out = append(out, d[j:]...)
	t.ord2 = out
	t.ord, t.ord2 = t.ord2, t.ord
	t.clearDirty()
}

// fsOf materializes one ordered link's Fit Score at the current W(t).
func (t *Tracker) fsOf(id rib.LinkID) float64 {
	w := int(t.wCount[id])
	p := t.rib.OnLinkID(id)
	ws := float64(w) / float64(t.totalW)
	ps := float64(w) / float64(w+p)
	return stats.WeightedGeoMean2(ws, t.cfg.WWS, ps, t.cfg.WPS)
}

// Scores computes per-link metrics for every link touched by the burst,
// sorted by RankKey descending — Fit-Score order, with mathematically
// tied scores broken by link for determinism. The slice is freshly
// allocated; the order comes from the maintained incremental rank, so a
// repeated call after few changes costs the re-rank of the dirty links
// plus materialization.
func (t *Tracker) Scores() []LinkScore {
	if t.totalW == 0 {
		return nil
	}
	t.refreshOrder()
	out := make([]LinkScore, 0, len(t.ord))
	for _, id := range t.ord {
		w := int(t.wCount[id])
		p := t.rib.OnLinkID(id)
		ws := float64(w) / float64(t.totalW)
		ps := float64(w) / float64(w+p)
		fs := stats.WeightedGeoMean2(ws, t.cfg.WWS, ps, t.cfg.WPS)
		out = append(out, LinkScore{Link: t.rib.LinkByID(id), W: w, P: p, WS: ws, PS: ps, FS: fs})
	}
	return out
}

// Result is an inference outcome.
type Result struct {
	// Links are the inferred failed links. Multiple entries either tie
	// at the maximum Fit Score or aggregate around a shared endpoint.
	Links []topology.Link
	// FS is the score of the returned set.
	FS float64
	// Predicted is the number of prefixes still routed over the
	// inferred links — the set SWIFT would reroute, and its estimate of
	// the withdrawals still to come.
	Predicted int
	// Received is the withdrawal count the inference consumed.
	Received int
	// Accepted reports whether the plausibility gate passed.
	Accepted bool
}

// PredictedPrefixes returns the prefixes the inference would reroute.
func (t *Tracker) PredictedPrefixes(r Result) []netaddr.Prefix {
	return t.rib.PrefixesOnAny(r.Links)
}

// AppendPredicted appends the prefixes an inference over links would
// reroute — the unsorted form of PredictedPrefixes for hot-path
// consumers that don't need canonical order. Each prefix appears once.
func (t *Tracker) AppendPredicted(dst []netaddr.Prefix, links []topology.Link) []netaddr.Prefix {
	t.rib.FillLinkSet(&t.set, links)
	return t.rib.AppendPrefixesOnSet(dst, &t.set)
}

// AppendWithdrawnOn appends the burst's already-withdrawn prefixes
// whose pre-withdrawal path crossed any of links — WithdrawnOn without
// the sort, for the engine's decision path. Prefixes withdrawn several
// times dedup through the multi index, so each appears exactly once;
// the order is unspecified.
func (t *Tracker) AppendWithdrawnOn(dst []netaddr.Prefix, links []topology.Link) []netaddr.Prefix {
	t.rib.FillLinkSet(&t.set, links)
	if len(t.multi) == 0 {
		for k, h := range t.wPaths {
			if t.rib.PathCrossesSet(h, &t.set) {
				dst = append(dst, t.wGroups[k]...)
			}
		}
		return dst
	}
	// Multi-withdrawn prefixes can sit in several path groups (and
	// twice in one); emit them from the multi index instead, once.
	for k, h := range t.wPaths {
		if !t.rib.PathCrossesSet(h, &t.set) {
			continue
		}
		for _, p := range t.wGroups[k] {
			if _, ok := t.multi[p]; !ok {
				dst = append(dst, p)
			}
		}
	}
	for p, hs := range t.multi {
		for _, h := range hs {
			if t.rib.PathCrossesSet(h, &t.set) {
				dst = append(dst, p)
				break
			}
		}
	}
	return dst
}

// WithdrawnOn returns the sorted union of prefixes already withdrawn in
// this burst whose pre-withdrawal path crossed any of the links.
// Together with PredictedPrefixes it forms the W′ set of §6.2's
// evaluation: all prefixes whose paths traversed the inferred links.
func (t *Tracker) WithdrawnOn(links []topology.Link) []netaddr.Prefix {
	t.rib.FillLinkSet(&t.set, links)
	var out []netaddr.Prefix
	for k, h := range t.wPaths {
		if t.rib.PathCrossesSet(h, &t.set) {
			out = append(out, t.wGroups[k]...)
		}
	}
	netaddr.Sort(out)
	// A prefix withdrawn more than once (with different paths both
	// crossing the set) appears twice; compact.
	return netaddr.DedupSorted(out)
}

// Infer runs the algorithm against the current burst state. With
// UseHistory set, Accepted applies §4.2's plausibility gate; otherwise
// every inference is accepted.
//
// Inference is incremental across calls within one burst: the candidate
// order is maintained (only links dirtied since the last call re-rank),
// scoring runs on reused buffers, and the only allocation is the
// returned link set. Large candidate or live-path sets fan the scoring
// and counting loops out over the bounded worker pool.
func (t *Tracker) Infer() Result {
	if t.totalW == 0 {
		return Result{}
	}
	t.refreshOrder()
	if len(t.ord) == 0 {
		return Result{}
	}
	links := t.pickOrdered()
	t.rib.FillLinkSet(&t.set, links)
	res := Result{
		Links:     append([]topology.Link(nil), links...),
		FS:        t.setFS(links),
		Predicted: t.countOnSet(),
		Received:  t.totalW,
		Accepted:  true,
	}
	if t.cfg.UseHistory {
		res.Accepted = t.plausible(res)
	}
	return res
}

// countOnSet counts prefixes crossing t.set, splitting the live-path
// scan across the worker pool when the table is large. Integer partial
// sums keep the result exact regardless of the split.
func (t *Tracker) countOnSet() int {
	n := t.rib.NumLivePaths()
	if n < 2*pathGrain {
		return t.rib.CountOnSet(&t.set)
	}
	var total atomic.Int64
	parallelFor(n, pathGrain, func(lo, hi int) {
		total.Add(int64(t.rib.CountOnSetRange(&t.set, lo, hi)))
	})
	return int(total.Load())
}

// plausible applies the history gate: large predictions early in a
// burst are deferred until enough withdrawals confirm them.
func (t *Tracker) plausible(r Result) bool {
	if r.Received >= t.cfg.AcceptAlways {
		return true
	}
	maxPred := -1
	for _, rule := range t.cfg.Plausibility {
		if r.Received >= rule.Received {
			maxPred = rule.MaxPredicted
		}
	}
	if maxPred < 0 {
		// Below the smallest bracket: accept only tiny predictions.
		if len(t.cfg.Plausibility) > 0 {
			return r.Predicted <= t.cfg.Plausibility[0].MaxPredicted
		}
		return true
	}
	return r.Predicted <= maxPred
}

// pickOrdered returns the maximum-FS links, extended by greedy
// same-endpoint aggregation when that increases the set score (the
// concurrent-failure handling of §4.2). It walks the maintained rank
// order on reused buffers; the returned slice aliases tracker scratch
// and is only valid until the next pick.
//
// Aggregate WS and PS use set unions rather than the paper's printed
// per-link sums: on a tree of paths seen from a single vantage, the
// prefixes withdrawn behind a far link also cross every nearer link, so
// summing W(l) double-counts them and inflates WS(S) past 1 for nested
// sets. The union form is the de-duplicated equivalent and matches the
// paper's worked examples (Fig. 4 aggregates nothing; a multi-homed
// entry to a failed router aggregates its entry links).
func (t *Tracker) pickOrdered() []topology.Link {
	topID := t.ord[0]
	topFS := t.fsOf(topID)
	topLink := t.rib.LinkByID(topID)
	links := append(t.linksA[:0], topLink)
	// Ties at the maximum: conservative multi-link answer.
	for _, id := range t.ord[1:] {
		if topFS-t.fsOf(id) <= t.cfg.TieEpsilon*math.Max(1, topFS) {
			links = append(links, t.rib.LinkByID(id))
		} else {
			break
		}
	}
	t.linksA = links

	// Greedy aggregation around each endpoint of the top link: extend
	// the current set with incident links in FS-descending order while
	// the set FS improves. Each endpoint gets its own scratch set so
	// the winner survives the other endpoint's pass.
	best := links
	bestFS := t.setFS(links)
	endpointSets := [2]*[]topology.Link{&t.linksB, &t.linksC}
	for ei, endpoint := range [2]uint32{topLink.A, topLink.B} {
		set := append((*endpointSets[ei])[:0], links...)
		*endpointSets[ei] = set
		shares := true
		for _, l := range set {
			if !l.Has(endpoint) {
				shares = false
				break
			}
		}
		if !shares {
			continue
		}
		cur := bestFS
		for _, id := range t.ord[1:] {
			l := t.rib.LinkByID(id)
			if !l.Has(endpoint) || inSet(set, l) {
				continue
			}
			cand := append(append(t.cand[:0], set...), l)
			t.cand = cand[:0]
			if fs := t.setFS(cand); fs > cur {
				set, cur = append(set[:0], cand...), fs
			}
		}
		*endpointSets[ei] = set
		if cur > bestFS {
			best, bestFS = set, cur
		}
	}
	return best
}

func inSet(set []topology.Link, l topology.Link) bool {
	for _, x := range set {
		if x == l {
			return true
		}
	}
	return false
}

// setFS computes the aggregate Fit Score of a link set (§4.2, with set
// unions in place of sums — see pickLinks):
// WS(S) = |∪ W(l)| / W(t);  PS(S) = |∪ W(l)| / (|∪ W(l)| + |∪ P(l)|).
//
// Both unions come from per-path groups: a unique path is tested
// against the set once and contributes its whole group, so the cost is
// O(unique paths), not O(prefixes). Prefixes withdrawn more than once
// are deduplicated through the multi index.
func (t *Tracker) setFS(links []topology.Link) float64 {
	if t.totalW == 0 {
		return 0
	}
	var w, p int
	if len(links) == 1 {
		if id, ok := t.rib.LookupLinkID(links[0]); ok {
			if int(id) < len(t.wCount) {
				w = int(t.wCount[id])
			}
			p = t.rib.OnLinkID(id)
		}
	} else {
		t.rib.FillLinkSet(&t.set, links)
		for k, h := range t.wPaths {
			if t.rib.PathCrossesSet(h, &t.set) {
				w += len(t.wGroups[k])
			}
		}
		// Subtract the over-count from prefixes withdrawn with several
		// paths that cross the set: each contributes 1, not its
		// crossing-path count.
		for _, hs := range t.multi {
			c := 0
			for _, h := range hs {
				if t.rib.PathCrossesSet(h, &t.set) {
					c++
				}
			}
			if c > 1 {
				w -= c - 1
			}
		}
		p = t.rib.CountOnSet(&t.set)
	}
	if w+p == 0 {
		return 0
	}
	ws := float64(w) / float64(t.totalW)
	ps := float64(w) / float64(w+p)
	return stats.WeightedGeoMean2(ws, t.cfg.WWS, ps, t.cfg.WPS)
}
