// Package fusion implements fleet-level evidence fusion: it merges the
// per-peer Fit-Score evidence of a controller.Fleet's engines into
// shared per-link verdicts, so a failure corroborated by k vantages
// triggers fast reroute on *all* fleet peers earlier — and with fewer
// wrong-link activations — than any single session's inference.
//
// The paper's §7 deployment monitors many BGP sessions of one router;
// each session sees the same remote failure through a different RIB and
// a different propagation delay. Per-peer SWIFT makes every engine wait
// for its own burst to accumulate. The Aggregator instead accumulates
// each peer's latest (link set, Fit Score, withdrawal count, stream
// clock) proposal — a peer's newer inference supersedes its older one,
// exactly as the engine's own reroute does — plus burst lifecycle
// state, and combines them per link:
//
//   - strong-proposal path: one proposal whose Fit Score reaches
//     FuseThreshold while at least MinBursting peers are in-burst
//     confirms its links (the fastest vantage pre-triggers the rest);
//   - k-of-n path: K distinct peers whose current proposals agree on a
//     link confirm it when the noisy-OR fused score 1-∏(1-FSᵢ) reaches
//     FuseThreshold (weak agreeing vantages corroborate each other).
//
// Confirmed links form the fleet verdict. Its predicted prefix set is
// deliberately conservative: the union of the supporters' *withdrawn*
// prefixes — control-plane facts observed at some vantage — rather than
// any single RIB's speculative coverage, so pre-triggering a lagging
// peer does not inflate its false-positive rate.
//
// The same evidence drives a conflict veto: while corroboration is
// possible (≥ MinBursting peers in-burst), a peer's own proposal is
// deferred when another in-burst peer's current evidence names a
// disjoint link set with a materially higher Fit Score. Early wrong-link
// inferences (a burst's first triggers routinely rank a downstream link
// above the true failure) are suppressed instead of installed. When no
// corroboration context exists — a single bursting peer, a single-peer
// deployment — the gate stands aside and fused behavior degrades to
// per-peer SWIFT exactly; fusion never slows the only vantage that
// sees the failure.
//
// All state transitions are pure functions of the evidence stream in
// stream-clock order, so a deterministic delivery order (the scenario
// engine's virtual clock) yields byte-identical verdicts.
package fusion

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"swift/internal/event"
	"swift/internal/netaddr"
	"swift/internal/rib"
	"swift/internal/topology"
)

// Defaults for Config's zero values.
const (
	DefaultK              = 2
	DefaultFuseThreshold  = 0.85
	DefaultConflictMargin = 0.10
	DefaultMinBursting    = 2
	DefaultTTL            = 10 * time.Second
)

// Config tunes the combining rule. The zero value selects defaults
// calibrated against the engine's per-peer acceptance behavior: a
// verdict needs roughly the evidence one confident engine or two
// doubtful ones would carry.
type Config struct {
	// K is the distinct-peer corroboration count of the k-of-n path.
	K int
	// FuseThreshold is the (fused) Fit Score a link needs for a verdict.
	FuseThreshold float64
	// ConflictMargin is how much stronger a disjoint proposal must be to
	// veto a peer's own decision.
	ConflictMargin float64
	// MinBursting is how many peers must be concurrently in-burst before
	// the gate and the strong-proposal path engage. Below it, fused mode
	// behaves exactly like per-peer SWIFT.
	MinBursting int
	// TTL is the evidence decay horizon on the stream clock: proposals
	// older than TTL (against the newest evidence seen) stop counting.
	TTL time.Duration
	// ManualPump disables the fleet's background verdict pump; the
	// embedder calls Fleet.FusePump at its own synchronization points
	// (the scenario engine pumps once per virtual tick, keeping verdict
	// fan-out deterministic).
	ManualPump bool
	// OnVerdict, when set, fires under the aggregator lock each time a
	// link is confirmed, with its supporter count and fused score — the
	// telemetry hook. It must be fast and must not call back into the
	// aggregator or the fleet.
	OnVerdict func(link topology.Link, supporters int, fused float64)
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = DefaultK
	}
	if c.FuseThreshold <= 0 {
		c.FuseThreshold = DefaultFuseThreshold
	}
	if c.ConflictMargin <= 0 {
		c.ConflictMargin = DefaultConflictMargin
	}
	if c.MinBursting <= 0 {
		c.MinBursting = DefaultMinBursting
	}
	if c.TTL <= 0 {
		c.TTL = DefaultTTL
	}
	return c
}

// Proposal is one engine inference offered as evidence: the links the
// peer's tracker ranked first, their Fit Score, the withdrawal count
// consumed, and the prefixes already withdrawn across those links on
// the proposing session (the verdict's conservative prediction source).
// The Peer field is filled by the peer's Gate.
type Proposal struct {
	Peer      event.PeerKey
	At        time.Duration
	Links     []topology.Link
	FS        float64
	Received  int
	Withdrawn []netaddr.Prefix
}

// Answer is the gate's ruling on a proposal. A vetoed proposal is
// recorded as evidence but the proposing engine defers its reroute: a
// disjoint, materially stronger opinion exists in the fleet (or already
// stands as a verdict), so acting on this one would likely divert the
// wrong link's prefixes.
type Answer struct {
	// Act reports whether the engine should install the reroute.
	Act bool
	// ConflictFS is the strongest disjoint evidence score that vetoed
	// the proposal (zero when Act).
	ConflictFS float64
}

// Verdict is the fleet's current externally-confirmed failed-link set.
type Verdict struct {
	// Links are the confirmed links, sorted.
	Links []topology.Link
	// Predicted is the sorted union of the supporters' withdrawn
	// prefixes — the corroborated failure set peers pre-trigger on.
	Predicted []netaddr.Prefix
	// FS is the strongest per-link fused score.
	FS float64
	// At is the stream clock at which the newest confirmed link formed.
	At time.Duration
	// Supporters is the largest per-link distinct-peer support count.
	Supporters int
	// Epoch identifies the confirmed link set; it bumps only when links
	// are added or removed, so appliers can skip no-op re-publications.
	Epoch uint64
}

// peerEvidence is one peer's current standing in the aggregator.
type peerEvidence struct {
	inBurst   bool
	at        time.Duration // newest proposal's stream clock
	fs        float64
	links     []rib.LinkID
	withdrawn []netaddr.Prefix
	received  int
}

func (pe *peerEvidence) fresh(now, ttl time.Duration) bool {
	return len(pe.links) > 0 && now-pe.at <= ttl
}

func (pe *peerEvidence) holds(id rib.LinkID) bool {
	for _, l := range pe.links {
		if l == id {
			return true
		}
	}
	return false
}

// Aggregator accumulates per-peer evidence and maintains the verdict.
// All methods are safe for concurrent use; callers must never invoke
// them while holding a lock the fleet's verdict pump could need (the
// engine's Propose runs under its peer lock, which is safe because the
// pump snapshots under the aggregator lock only and applies verdicts
// after releasing it).
type Aggregator struct {
	cfg  Config
	pool *rib.Pool

	mu       sync.Mutex
	peers    map[event.PeerKey]*peerEvidence
	bursting int
	// active is the confirmed link set; since records each link's
	// formation time on the stream clock.
	active map[rib.LinkID]time.Duration
	maxAt  time.Duration // newest evidence clock, the live pump's "now"
	epoch  uint64

	// Counters for telemetry (sampled at scrape time).
	evidenceEvents atomic.Uint64
	vetoes         atomic.Uint64
	verdictLinks   atomic.Uint64
}

// NewAggregator builds an aggregator over the fleet's shared intern
// pool — evidence and verdicts are keyed on the pool's dense LinkIDs,
// so peers proposing the same topology link agree by construction.
func NewAggregator(cfg Config, pool *rib.Pool) *Aggregator {
	if pool == nil {
		pool = rib.NewPool()
	}
	return &Aggregator{
		cfg:    cfg.withDefaults(),
		pool:   pool,
		peers:  make(map[event.PeerKey]*peerEvidence),
		active: make(map[rib.LinkID]time.Duration),
	}
}

// Config returns the aggregator's effective (defaulted) configuration.
func (a *Aggregator) Config() Config { return a.cfg }

// Gate binds a peer's identity into a proposal gate for its engine.
func (a *Aggregator) Gate(peer event.PeerKey) *Gate { return &Gate{agg: a, peer: peer} }

// Gate is one peer's handle on the aggregator — the engine-facing
// surface that stamps the peer key onto proposals.
type Gate struct {
	agg  *Aggregator
	peer event.PeerKey
}

// Propose stamps the gate's peer onto p and offers it.
func (g *Gate) Propose(p Proposal) Answer {
	p.Peer = g.peer
	return g.agg.Propose(p)
}

func (a *Aggregator) peer(key event.PeerKey) *peerEvidence {
	pe := a.peers[key]
	if pe == nil {
		pe = &peerEvidence{}
		a.peers[key] = pe
	}
	return pe
}

// BurstStart records that a peer's detector opened a burst.
func (a *Aggregator) BurstStart(key event.PeerKey, at time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	pe := a.peer(key)
	if !pe.inBurst {
		pe.inBurst = true
		a.bursting++
	}
	a.clock(at)
}

// BurstEnd retracts a peer's evidence: its burst closed, BGP converged
// on that session, and its in-flight opinion no longer corroborates
// anything. Links the retraction leaves under-supported drop out of the
// verdict.
func (a *Aggregator) BurstEnd(key event.PeerKey, at time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	pe := a.peers[key]
	if pe == nil {
		return
	}
	if pe.inBurst {
		pe.inBurst = false
		a.bursting--
	}
	pe.links = pe.links[:0]
	pe.withdrawn = pe.withdrawn[:0]
	pe.fs = 0
	a.clock(at)
	a.recomputeLocked(at)
}

// Retract removes a peer entirely — fleet session teardown.
func (a *Aggregator) Retract(key event.PeerKey) {
	a.mu.Lock()
	defer a.mu.Unlock()
	pe := a.peers[key]
	if pe == nil {
		return
	}
	if pe.inBurst {
		a.bursting--
	}
	delete(a.peers, key)
	a.recomputeLocked(a.maxAt)
}

// clock advances the aggregator's newest-evidence clock.
func (a *Aggregator) clock(at time.Duration) {
	if at > a.maxAt {
		a.maxAt = at
	}
}

// Propose records one engine inference as the peer's current evidence
// (superseding its previous proposal, as the engine's own reroute
// supersedes its previous rules) and rules on whether the proposing
// engine should act on it.
func (a *Aggregator) Propose(p Proposal) Answer {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.evidenceEvents.Add(1)
	pe := a.peer(p.Peer)
	pe.at = p.At
	pe.fs = p.FS
	pe.received = p.Received
	pe.links = pe.links[:0]
	for _, l := range p.Links {
		pe.links = append(pe.links, a.pool.LinkID(l))
	}
	// Copy: the engine reuses/retains the decision buffers.
	pe.withdrawn = append(pe.withdrawn[:0], p.Withdrawn...)
	a.clock(p.At)
	a.recomputeLocked(p.At)

	// The gate. Without corroboration context, per-peer behavior stands.
	if a.bursting < a.cfg.MinBursting {
		return Answer{Act: true}
	}
	// Consistent with the verdict: act.
	for _, id := range pe.links {
		if _, ok := a.active[id]; ok {
			return Answer{Act: true}
		}
	}
	// Conflict veto: a disjoint, materially stronger current opinion
	// from another in-burst peer defers this one.
	var conflict float64
	for key, other := range a.peers {
		if key == p.Peer || !other.inBurst || !other.fresh(p.At, a.cfg.TTL) {
			continue
		}
		if other.fs < p.FS+a.cfg.ConflictMargin || other.fs <= conflict {
			continue
		}
		disjoint := true
		for _, id := range pe.links {
			if other.holds(id) {
				disjoint = false
				break
			}
		}
		if disjoint {
			conflict = other.fs
		}
	}
	if conflict > 0 {
		a.vetoes.Add(1)
		return Answer{Act: false, ConflictFS: conflict}
	}
	return Answer{Act: true}
}

// recomputeLocked re-derives the confirmed link set from the current
// evidence at stream clock now. Membership is a pure function of the
// evidence (order-independent); only formation times depend on when a
// link first satisfied its condition.
func (a *Aggregator) recomputeLocked(now time.Duration) {
	changed := false
	// Confirmation needs corroboration context at all.
	seen := make(map[rib.LinkID]bool)
	if a.bursting >= a.cfg.MinBursting {
		for _, pe := range a.peers {
			if !pe.inBurst || !pe.fresh(now, a.cfg.TTL) {
				continue
			}
			for _, id := range pe.links {
				if seen[id] {
					continue
				}
				seen[id] = true
				if !a.confirmedLocked(id, now) {
					continue
				}
				if _, ok := a.active[id]; !ok {
					a.active[id] = now
					changed = true
					if a.cfg.OnVerdict != nil {
						supporters, fused, _ := a.supportLocked(id, now)
						a.cfg.OnVerdict(a.pool.LinkAt(id), supporters, fused)
					}
				}
			}
		}
	}
	// Drop links whose support evaporated (burst ends, retraction,
	// supersession, decay).
	for id := range a.active {
		if a.bursting >= a.cfg.MinBursting && seen[id] && a.confirmedLocked(id, now) {
			continue
		}
		delete(a.active, id)
		changed = true
	}
	if changed {
		a.epoch++
		a.verdictLinks.Store(uint64(len(a.active)))
	}
}

// confirmedLocked decides one link's verdict membership. The k-of-n
// path stands on its own: K distinct vantages agreeing is corroboration
// no single opinion outranks. The strong-proposal path is a
// single-vantage shortcut, so it must be unchallenged — any fresh
// in-burst peer holding evidence for other links with a strictly higher
// score blocks it (early in a burst the wrong downstream link routinely
// crosses the threshold first; the challenger's link is the one the
// fleet should wait for).
func (a *Aggregator) confirmedLocked(id rib.LinkID, now time.Duration) bool {
	supporters, fused, maxFS := a.supportLocked(id, now)
	if supporters >= a.cfg.K && fused >= a.cfg.FuseThreshold {
		return true
	}
	if maxFS < a.cfg.FuseThreshold {
		return false
	}
	for _, pe := range a.peers {
		if !pe.inBurst || !pe.fresh(now, a.cfg.TTL) || pe.holds(id) {
			continue
		}
		if pe.fs > maxFS {
			return false
		}
	}
	return true
}

// supportLocked folds the fresh in-burst evidence for one link:
// distinct supporters, the noisy-OR fused score and the strongest
// single score.
func (a *Aggregator) supportLocked(id rib.LinkID, now time.Duration) (supporters int, fused, maxFS float64) {
	miss := 1.0
	for _, pe := range a.peers {
		if !pe.inBurst || !pe.fresh(now, a.cfg.TTL) || !pe.holds(id) {
			continue
		}
		supporters++
		miss *= 1 - pe.fs
		if pe.fs > maxFS {
			maxFS = pe.fs
		}
	}
	return supporters, 1 - miss, maxFS
}

// Snapshot re-evaluates decay at stream clock now and returns the
// current verdict. ok is false when no link is confirmed; the returned
// epoch still identifies the (empty) state.
func (a *Aggregator) Snapshot(now time.Duration) (v Verdict, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if now <= 0 {
		now = a.maxAt
	}
	a.clock(now)
	a.recomputeLocked(now)
	v.Epoch = a.epoch
	if len(a.active) == 0 {
		return v, false
	}
	v.Links = make([]topology.Link, 0, len(a.active))
	for id, since := range a.active {
		v.Links = append(v.Links, a.pool.LinkAt(id))
		if since > v.At {
			v.At = since
		}
		supporters, fused, maxFS := a.supportLocked(id, now)
		if fused < maxFS {
			fused = maxFS
		}
		if fused > v.FS {
			v.FS = fused
		}
		if supporters > v.Supporters {
			v.Supporters = supporters
		}
	}
	slices.SortFunc(v.Links, func(a, b topology.Link) int {
		if c := cmp.Compare(a.A, b.A); c != 0 {
			return c
		}
		return cmp.Compare(a.B, b.B)
	})
	// The conservative prediction: prefixes some supporter has already
	// seen withdrawn across a confirmed link.
	for _, pe := range a.peers {
		if !pe.inBurst || !pe.fresh(now, a.cfg.TTL) {
			continue
		}
		holds := false
		for id := range a.active {
			if pe.holds(id) {
				holds = true
				break
			}
		}
		if holds {
			v.Predicted = append(v.Predicted, pe.withdrawn...)
		}
	}
	netaddr.Sort(v.Predicted)
	v.Predicted = netaddr.DedupSorted(v.Predicted)
	return v, true
}

// Stats is a telemetry snapshot of the aggregator.
type Stats struct {
	// Peers is the tracked peer count, Bursting how many are in-burst.
	Peers    int
	Bursting int
	// EvidenceEvents counts proposals recorded; Vetoes how many the
	// conflict gate deferred.
	EvidenceEvents uint64
	Vetoes         uint64
	// VerdictLinks is the currently confirmed link count; Epoch the
	// verdict identity.
	VerdictLinks int
	Epoch        uint64
}

// Stats snapshots the aggregator's counters.
func (a *Aggregator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		Peers:          len(a.peers),
		Bursting:       a.bursting,
		EvidenceEvents: a.evidenceEvents.Load(),
		Vetoes:         a.vetoes.Load(),
		VerdictLinks:   len(a.active),
		Epoch:          a.epoch,
	}
}
