// Package swift implements the SWIFT engine — the paper's core
// contribution assembled from its parts (§3's workflow): it consumes a
// BGP session's event stream, maintains the session RIB, detects
// withdrawal bursts, runs the inference algorithm at the adaptive
// triggers, and installs tag-based reroute rules into the two-stage
// forwarding table, falling back to BGP's own routes once the burst is
// over and BGP has reconverged.
//
// One Engine serves one BGP session; a router runs one engine per
// session, in parallel, exactly as §4.1 prescribes. The engine is a
// stream sink: feeds deliver ordered event.Batches through Apply, and
// live consumers subscribe to the Observer hooks instead of polling.
package swift

import (
	"errors"
	"time"

	"swift/internal/burst"
	"swift/internal/dataplane"
	"swift/internal/encoding"
	"swift/internal/event"
	"swift/internal/fusion"
	"swift/internal/inference"
	"swift/internal/netaddr"
	"swift/internal/reroute"
	"swift/internal/rib"
	"swift/internal/topology"
)

// FusionGate is the engine's hook into a fleet-level evidence-fusion
// layer (internal/fusion). When configured, every accepted inference is
// offered as a Proposal before its rules are installed; a veto defers
// the reroute (the fleet holds materially stronger, disjoint evidence).
// Propose is called at decision points only — never on the per-event
// hot path — and runs synchronously on the applying goroutine.
type FusionGate interface {
	Propose(p fusion.Proposal) fusion.Answer
}

// Config assembles the engine's tunables. Zero values select the
// paper's defaults everywhere.
type Config struct {
	// LocalAS is the SWIFTED router's AS number.
	LocalAS uint32
	// PrimaryNeighbor is the session peer whose routes the router
	// currently prefers (AS 2 in Fig. 1).
	PrimaryNeighbor uint32
	// Inference, Encoding and Burst carry the per-algorithm settings.
	Inference inference.Config
	Encoding  encoding.Config
	Burst     burst.Config
	// ReroutePolicy is the operator's backup-selection policy.
	ReroutePolicy *reroute.Policy
	// Pool is the path/link intern pool backing every RIB the engine
	// owns (primary and alternates). Nil selects a private pool; a
	// Fleet passes one shared pool so peers announcing overlapping
	// paths store each path once.
	Pool *rib.Pool
	// RuleUpdateCost models the FIB write latency.
	RuleUpdateCost time.Duration
	// DisableProvisionSkip turns off the RIB-signature fast path that
	// skips burst-end re-provisioning when BGP reconverged onto exactly
	// the provisioned routes. Equivalence tests force the full recompile
	// through this to pin that the skip never changes FIB contents.
	DisableProvisionSkip bool
	// Fusion, when set, offers every accepted inference to a fleet-level
	// evidence-fusion gate before acting on it, and lets the fleet apply
	// externally-confirmed verdicts via ApplyExternal. Nil (the default)
	// keeps pure per-peer behavior.
	Fusion FusionGate
	// Observer receives push notifications at the engine's lifecycle
	// points (burst start/end, decisions, provisioning).
	Observer Observer
	// Metrics carries pre-resolved telemetry handles. The zero value
	// disables instrumentation; see Metrics for the hot-path contract.
	Metrics Metrics
	// Logf, when set, receives one line per engine decision.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	// Per-field inference defaulting, so callers can override one knob
	// without zeroing the rest (the encoding block below set the
	// pattern). UseHistory is a bool whose false value is meaningful,
	// so it only takes the paper's default when the whole block was
	// left untouched.
	idef := inference.Default()
	inf := &c.Inference
	untouched := inf.WWS <= 0 && inf.WPS <= 0 && inf.TriggerEvery <= 0 &&
		inf.AcceptAlways <= 0 && inf.Plausibility == nil && inf.TieEpsilon <= 0
	if inf.WWS <= 0 {
		inf.WWS = idef.WWS
	}
	if inf.WPS <= 0 {
		inf.WPS = idef.WPS
	}
	if inf.TriggerEvery <= 0 {
		inf.TriggerEvery = idef.TriggerEvery
	}
	if inf.AcceptAlways <= 0 {
		inf.AcceptAlways = idef.AcceptAlways
	}
	if inf.Plausibility == nil {
		inf.Plausibility = idef.Plausibility
	}
	if inf.TieEpsilon <= 0 {
		inf.TieEpsilon = idef.TieEpsilon
	}
	if untouched {
		inf.UseHistory = inf.UseHistory || idef.UseHistory
	}
	// Per-field encoding defaults so callers can override one knob.
	def := encoding.Default()
	if c.Encoding.TagBits == 0 {
		c.Encoding.TagBits = def.TagBits
	}
	if c.Encoding.PathBits == 0 {
		c.Encoding.PathBits = def.PathBits
	}
	if c.Encoding.MaxDepth == 0 {
		c.Encoding.MaxDepth = def.MaxDepth
	}
	if c.Encoding.MinPrefixes == 0 {
		c.Encoding.MinPrefixes = def.MinPrefixes
	}
	if c.Encoding.NHBits == 0 {
		c.Encoding.NHBits = def.NHBits
	}
	return c
}

// Decision records one accepted inference and the data-plane action it
// triggered.
type Decision struct {
	// At is the stream offset when the inference ran.
	At time.Duration
	// Result is the raw inference outcome.
	Result inference.Result
	// Predicted lists the prefixes the rules divert (a snapshot of the
	// RIB's coverage of the inferred links at decision time).
	Predicted []netaddr.Prefix
	// RulesInstalled counts the stage-2 writes performed.
	RulesInstalled int
	// DataplaneTime is the modeled FIB update latency for those writes.
	DataplaneTime time.Duration
	// InferLatency is the wall-clock time the inference computation
	// took — the engine-side half of the paper's reaction-time budget.
	InferLatency time.Duration
	// External marks a decision applied from a fleet-level fused verdict
	// (ApplyExternal) rather than this session's own inference. External
	// decisions must not be re-offered as fusion evidence.
	External bool
	// WithdrawnStart splits Predicted: Predicted[:WithdrawnStart] are
	// prefixes still routed across the links at decision time,
	// Predicted[WithdrawnStart:] were already withdrawn on the session.
	// External decisions carry only corroborated-withdrawn prefixes, so
	// theirs is 0.
	WithdrawnStart int
}

// ProvisionInfo describes one successful Provision pass.
type ProvisionInfo struct {
	// At is the stream offset of a burst-end re-provision; zero for the
	// initial out-of-band provisioning.
	At time.Duration
	// Fallback is true when the pass re-derived the plan against the
	// converged RIB after a burst ended (§3's fallback).
	Fallback bool
	// Unchanged is true when a fallback pass found the RIBs carrying
	// exactly the provisioned routes again (BGP reconverged onto the
	// pre-burst state, the common case for transient failures) and kept
	// the existing plan, tags and FIB state instead of recompiling.
	Unchanged bool
	// TaggedPrefixes, PathBitsUsed, EncodedLinks and NextHops summarize
	// the compiled encoding.
	TaggedPrefixes int
	PathBitsUsed   int
	EncodedLinks   int
	NextHops       int
}

// Observer is the engine's push-notification surface. Each hook, when
// non-nil, is called synchronously on the goroutine applying the stream
// — hooks must be fast and must not call back into the engine. It
// replaces log-line scraping and Decisions() polling for live
// consumers.
type Observer struct {
	// OnBurstStart fires when the detector opens a burst.
	OnBurstStart func(at time.Duration, withdrawals int)
	// OnDecision fires for every accepted inference, right after its
	// rules hit the data plane.
	OnDecision func(d Decision)
	// OnBurstEnd fires when the detector closes a burst, before the
	// engine falls back to BGP's converged routes. received is the
	// burst's total withdrawal count.
	OnBurstEnd func(at time.Duration, received int)
	// OnProvision fires after every successful Provision pass — the
	// initial one and every burst-end fallback re-provision.
	OnProvision func(info ProvisionInfo)
}

// Engine is the per-session SWIFT pipeline.
type Engine struct {
	cfg      Config
	table    *rib.Table
	alts     map[uint32]*rib.Table
	tracker  *inference.Tracker
	history  *burst.History
	detector *burst.Detector
	plan     *reroute.Plan
	scheme   *encoding.Scheme
	fib      *dataplane.FIB

	// triggerEvery caches cfg.Inference.TriggerEvery (always positive
	// after withDefaults) off the per-withdrawal path.
	triggerEvery int

	lastWithdrawal time.Duration
	lastTriggerAt  int // tracker count at the previous inference attempt
	burstStartAt   time.Duration
	rerouteActive  bool
	decisions      []Decision
	deferred       int // inferences rejected by the plausibility gate
	vetoed         int // inferences deferred by the fusion conflict gate

	// Fusion state: ownLinks are the links of the engine's own current
	// reroute (nil when the active rules are external-only); extLinks the
	// fleet verdict's links when externally applied; extEpoch the last
	// verdict epoch seen (0 = none), so repeated pump publications of an
	// unchanged verdict are no-ops.
	ownLinks  []topology.Link
	extLinks  []topology.Link
	extActive bool
	extEpoch  uint64

	// provisionSig memoizes the RIB-content signature the current plan
	// and tags were compiled from; a burst-end fallback whose RIBs carry
	// that signature again skips the recompilation outright.
	provisionSig  uint64
	haveProvision bool
}

// Engine is a stream sink.
var _ event.Sink = (*Engine)(nil)

// New builds an engine. Routes must then be loaded with LearnPrimary /
// LearnAlternate, followed by one Provision call before streaming.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	if cfg.Pool == nil {
		cfg.Pool = rib.NewPool()
	}
	e := &Engine{
		cfg:          cfg,
		table:        rib.NewWithPool(cfg.LocalAS, cfg.Pool),
		alts:         make(map[uint32]*rib.Table),
		history:      &burst.History{},
		fib:          dataplane.New(dataplane.Config{RuleUpdateCost: cfg.RuleUpdateCost}),
		triggerEvery: cfg.Inference.TriggerEvery,
	}
	e.tracker = inference.NewTracker(cfg.Inference, e.table)
	e.detector = burst.NewDetector(cfg.Burst, e.history)
	return e
}

// LearnPrimary installs a route on the primary session RIB (initial
// table transfer).
func (e *Engine) LearnPrimary(p netaddr.Prefix, path []uint32) {
	e.table.Announce(p, path)
}

// LearnAlternate installs a route offered by another neighbor (or a
// remote iBGP next-hop) — the pool backups are drawn from.
func (e *Engine) LearnAlternate(neighbor uint32, p netaddr.Prefix, path []uint32) {
	t := e.alts[neighbor]
	if t == nil {
		t = rib.NewWithPool(e.cfg.LocalAS, e.cfg.Pool)
		e.alts[neighbor] = t
	}
	t.Announce(p, path)
}

// Provision computes the backup plan and tag encoding from the current
// RIBs and fills both forwarding stages — the "before the outage" half
// of Fig. 3. It must be called after the initial routes are loaded and
// may be called again after BGP reconverges.
func (e *Engine) Provision() error { return e.provision(0, false) }

func (e *Engine) provision(at time.Duration, fallback bool) error {
	sig := e.table.Signature()
	for n, alt := range e.alts {
		sig ^= rib.SigMix(alt.Signature() ^ uint64(n))
	}
	if fallback && !e.cfg.DisableProvisionSkip && e.haveProvision && sig == e.provisionSig && e.scheme != nil {
		// BGP reconverged onto exactly the provisioned routes (the
		// transient-failure common case): the plan, tags and FIB state
		// all still hold. Report the pass without recompiling. The
		// accounting reset matches the recompiled path — post-fallback,
		// Writes/Elapsed measure the next failure reaction only.
		e.fib.ResetAccounting()
		stats := e.scheme.Stats()
		e.cfg.Metrics.Provisions.Inc()
		e.cfg.Metrics.ProvisionsUnchanged.Inc()
		e.logf("re-provision skipped: RIB reconverged onto provisioned state (%d prefixes tagged)",
			stats.TaggedPrefixes)
		if e.cfg.Observer.OnProvision != nil {
			e.cfg.Observer.OnProvision(ProvisionInfo{
				At:             at,
				Fallback:       true,
				Unchanged:      true,
				TaggedPrefixes: stats.TaggedPrefixes,
				PathBitsUsed:   stats.PathBitsUsed,
				EncodedLinks:   stats.EncodedLinks,
				NextHops:       stats.NextHops,
			})
		}
		return nil
	}
	e.plan = reroute.Compute(e.cfg.LocalAS, e.table, e.alts, e.cfg.ReroutePolicy, e.cfg.Encoding.MaxDepth)
	scheme, err := encoding.Build(e.cfg.Encoding, e.table, e.plan)
	if err != nil {
		return err
	}
	// The scheme's sorted tag assignment is handed to the FIB wholesale,
	// which copies it into the previous stage-1 table's buffer.
	// The primary rule is replaced, not stacked: a fallback pass
	// re-derives it, and leaving the previous one in stage 2 would grow
	// the table by one duplicate per burst.
	if err := e.fib.ReplaceTags(scheme.Tags()); err != nil {
		return err
	}
	e.scheme = scheme
	e.fib.RemoveRulesAt(primaryPriority)
	if r, ok := scheme.PrimaryRule(e.cfg.PrimaryNeighbor); ok {
		e.fib.InstallRule(r)
	}
	// Provisioning happens in steady state; the accounting should
	// measure failure reactions only.
	e.fib.ResetAccounting()
	e.provisionSig, e.haveProvision = sig, true
	e.cfg.Metrics.Provisions.Inc()
	stats := scheme.Stats()
	e.logf("provisioned: %d prefixes tagged, %d path bits, %d next-hops",
		stats.TaggedPrefixes, stats.PathBitsUsed, stats.NextHops)
	if e.cfg.Observer.OnProvision != nil {
		e.cfg.Observer.OnProvision(ProvisionInfo{
			At:             at,
			Fallback:       fallback,
			TaggedPrefixes: stats.TaggedPrefixes,
			PathBitsUsed:   stats.PathBitsUsed,
			EncodedLinks:   stats.EncodedLinks,
			NextHops:       stats.NextHops,
		})
	}
	return nil
}

// FIB exposes the simulated forwarding table.
func (e *Engine) FIB() *dataplane.FIB { return e.fib }

// RIB exposes the primary session RIB.
func (e *Engine) RIB() *rib.Table { return e.table }

// Pool exposes the path/link intern pool behind the engine's RIBs.
func (e *Engine) Pool() *rib.Pool { return e.cfg.Pool }

// Plan exposes the current backup plan.
func (e *Engine) Plan() *reroute.Plan { return e.plan }

// Scheme exposes the compiled encoding.
func (e *Engine) Scheme() *encoding.Scheme { return e.scheme }

// Decisions returns a snapshot of every accepted inference so far. The
// returned slice is the caller's to keep: it never aliases engine
// state, so it cannot be corrupted by (or race with) later stream
// deliveries.
func (e *Engine) Decisions() []Decision {
	if len(e.decisions) == 0 {
		return nil
	}
	return append([]Decision(nil), e.decisions...)
}

// NumDecisions returns the count of accepted inferences without
// snapshotting them.
func (e *Engine) NumDecisions() int { return len(e.decisions) }

// Deferred returns how many inferences the plausibility gate rejected.
func (e *Engine) Deferred() int { return e.deferred }

// RerouteActive reports whether fast-reroute rules are installed.
func (e *Engine) RerouteActive() bool { return e.rerouteActive }

// Apply consumes one ordered batch of stream events — the engine's
// only way in. Batching amortizes the per-delivery setup (call
// overhead, config loads) across the batch, and announce events of one
// UPDATE share a single path slice instead of copying per prefix.
// Per-event semantics are exactly the paper's: burst detection,
// adaptive triggers and fallback fire at the same message they would
// under one-event batches, so a batched replay and a per-event replay
// make identical decisions.
//
// The returned error reports burst-end re-provision failures; the
// stream itself is always fully consumed. Engines are single-session
// state machines: Apply must not be called concurrently (wrap the
// engine in a SessionSink, or front it with a Fleet, for concurrent
// feeds).
func (e *Engine) Apply(b event.Batch) error {
	var errs []error
	var wd, ann uint64
	for i := range b {
		ev := &b[i]
		switch ev.Kind {
		case event.KindWithdraw:
			wd++
			e.observeWithdraw(ev.At, ev.Prefix)
		case event.KindAnnounce:
			ann++
			if err := e.observeAnnounce(ev.At, ev.Prefix, ev.Path); err != nil {
				errs = append(errs, err)
			}
		case event.KindTick:
			if e.detector.Tick(ev.At) == burst.Ended {
				if err := e.endBurst(ev.At); err != nil {
					errs = append(errs, err)
				}
			}
		}
	}
	// Telemetry flush: the local tallies become one atomic add per
	// event kind per batch (handles are nil-safe), keeping the
	// steady-state path allocation-free and branch-cheap.
	if wd > 0 {
		e.cfg.Metrics.Withdrawals.Add(wd)
	}
	if ann > 0 {
		e.cfg.Metrics.Announcements.Add(ann)
	}
	return errors.Join(errs...)
}

// observeWithdraw processes one withdrawal event.
func (e *Engine) observeWithdraw(at time.Duration, p netaddr.Prefix) {
	// A lone withdrawal long after the last one is background noise:
	// drop stale burst state so W(t) reflects the current event.
	if e.detector.State() == burst.Quiet && e.tracker.Received() > 0 &&
		at-e.lastWithdrawal > 2*burst.DefaultWindow {
		e.tracker.Reset()
	}
	e.lastWithdrawal = at
	e.tracker.ObserveWithdraw(p)
	tr := e.detector.ObserveWithdrawal(at)
	if tr == burst.Started {
		e.burstStartAt = at
		e.cfg.Metrics.BurstsStarted.Inc()
		e.logf("burst started at %v with %d withdrawals in window", at, e.detector.BurstCount())
		if e.cfg.Observer.OnBurstStart != nil {
			e.cfg.Observer.OnBurstStart(at, e.detector.BurstCount())
		}
	}
	if e.detector.State() == burst.InBurst {
		e.maybeInfer(at)
	}
}

// observeAnnounce processes one announcement event.
func (e *Engine) observeAnnounce(at time.Duration, p netaddr.Prefix, path []uint32) error {
	e.tracker.ObserveAnnounce(p, path)
	if e.detector.Tick(at) == burst.Ended {
		return e.endBurst(at)
	}
	return nil
}

// maybeInfer runs the inference at the adaptive trigger points.
func (e *Engine) maybeInfer(at time.Duration) {
	if e.tracker.Received()-e.lastTriggerAt < e.triggerEvery {
		return
	}
	e.lastTriggerAt = e.tracker.Received()
	// Inference runs only at trigger points (every TriggerEvery
	// withdrawals inside a burst), so the pair of clock reads is off the
	// steady-state path.
	start := time.Now()
	res := e.tracker.Infer()
	lat := time.Since(start)
	e.cfg.Metrics.InferLatency.Observe(lat.Seconds())
	if len(res.Links) == 0 {
		return
	}
	if !res.Accepted {
		e.deferred++
		e.cfg.Metrics.InferencesDeferred.Inc()
		e.logf("inference deferred at %v: predicted %d too large for %d received",
			at, res.Predicted, res.Received)
		return
	}
	e.applyReroute(at, res, lat)
}

// applyReroute installs the tag rules for an accepted inference.
func (e *Engine) applyReroute(at time.Duration, res inference.Result, inferLat time.Duration) {
	if e.scheme == nil {
		return
	}
	// The rules match tags, and stage-1 tags persist through the burst:
	// prefixes already withdrawn in the control plane are diverted too,
	// so the covered set is the union of still-active and withdrawn
	// prefixes crossing the inferred links. Each half deduplicates
	// internally and no sort is needed on the hot path; a prefix
	// withdrawn then re-announced across the links can appear in both
	// halves (as it always could).
	predicted := e.tracker.AppendPredicted(nil, res.Links)
	wStart := len(predicted)
	predicted = e.tracker.AppendWithdrawnOn(predicted, res.Links)
	if e.cfg.Fusion != nil {
		// Offer the inference as fleet evidence; a veto means another
		// in-burst vantage currently holds materially stronger, disjoint
		// evidence, so acting on this one would likely divert the wrong
		// link's prefixes. The evidence is recorded either way.
		ans := e.cfg.Fusion.Propose(fusion.Proposal{
			At:        at,
			Links:     res.Links,
			FS:        res.FS,
			Received:  res.Received,
			Withdrawn: predicted[wStart:],
		})
		e.cfg.Metrics.FusionProposals.Inc()
		if !ans.Act {
			e.vetoed++
			e.cfg.Metrics.FusionVetoed.Inc()
			e.logf("reroute vetoed at %v: links %v fs %.3f conflicts with fleet evidence fs %.3f",
				at, res.Links, res.FS, ans.ConflictFS)
			return
		}
	}
	before := e.fib.Writes()
	if e.rerouteActive {
		e.fib.RemoveRulesAt(reroutePriority)
	}
	e.ownLinks = append(e.ownLinks[:0], res.Links...)
	rules := e.scheme.RerouteRules(e.ownLinks)
	for i := range rules {
		rules[i].Priority = reroutePriority
	}
	e.fib.InstallRules(rules)
	e.rerouteActive = true
	d := Decision{
		At:             at,
		Result:         res,
		Predicted:      predicted,
		WithdrawnStart: wStart,
		RulesInstalled: e.fib.Writes() - before,
		InferLatency:   inferLat,
	}
	d.DataplaneTime = time.Duration(d.RulesInstalled) * dataplaneCost(e.cfg.RuleUpdateCost)
	e.decisions = append(e.decisions, d)
	e.cfg.Metrics.Decisions.Inc()
	e.cfg.Metrics.RulesInstalled.Add(uint64(d.RulesInstalled))
	e.logf("reroute at %v: links %v, %d prefixes predicted, %d rules (%v)",
		at, res.Links, len(d.Predicted), d.RulesInstalled, d.DataplaneTime)
	if e.cfg.Observer.OnDecision != nil {
		e.cfg.Observer.OnDecision(d)
	}
}

func dataplaneCost(c time.Duration) time.Duration {
	if c <= 0 {
		return dataplane.DefaultRuleUpdate
	}
	return c
}

// linksCovered reports whether every link of needles is in haystack.
func linksCovered(needles, haystack []topology.Link) bool {
	for _, n := range needles {
		found := false
		for _, h := range haystack {
			if h == n {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// ApplyExternal installs fast-reroute rules for a fleet-confirmed
// failed-link set — the fan-out half of evidence fusion. External
// rules live in their own priority tier (ExternalReroutePriority, just
// below the engine's own at ReroutePriority) so a later local
// inference neither churns them nor pays their install cost, and an
// own rule wins wherever the two tiers overlap. The recorded
// prediction is the verdict's corroborated-withdrawn prefixes
// restricted to this session's coverage of the links, NOT the
// session's full speculative crossing set — pre-triggering a lagging
// peer must not inflate its false-positive rate.
//
// Re-publication of an unchanged verdict (same epoch) is a no-op, as is
// a verdict the engine's own rules already cover. Like every mutation,
// it must run on the engine's applying goroutine (a fleet calls it
// under the peer lock).
func (e *Engine) ApplyExternal(v fusion.Verdict) {
	if e.scheme == nil || len(v.Links) == 0 {
		return
	}
	if e.extEpoch == v.Epoch {
		return
	}
	e.extEpoch = v.Epoch
	if e.rerouteActive && linksCovered(v.Links, e.ownLinks) {
		// The engine's own inference already diverts these links. If an
		// earlier, wider verdict left an external tier standing (the
		// fleet walked back a link), retire it — keeping stale rules
		// would divert links nobody confirms anymore.
		if e.extActive {
			e.extActive = false
			e.extLinks = e.extLinks[:0]
			e.fib.RemoveRulesAt(extReroutePriority)
		}
		return
	}
	before := e.fib.Writes()
	if e.extActive {
		e.fib.RemoveRulesAt(extReroutePriority)
	}
	e.extLinks = append(e.extLinks[:0], v.Links...)
	e.extActive = true
	rules := e.scheme.RerouteRules(e.extLinks)
	for i := range rules {
		rules[i].Priority = extReroutePriority
	}
	e.fib.InstallRules(rules)
	// Corroborated prediction: the verdict's withdrawn-somewhere set
	// intersected with the prefixes this session has itself seen
	// withdrawn across the confirmed links — control-plane facts on BOTH
	// ends, never speculation. The session's speculative crossing set is
	// deliberately excluded: scenario bursts withdraw a sample of the
	// crossing prefixes, and predicting the rest here is exactly the
	// false-positive inflation fusion exists to avoid. The installed
	// rules still divert whole links, so flows the prediction undercounts
	// restore through the rule match anyway.
	local := e.tracker.AppendWithdrawnOn(nil, v.Links)
	cover := make(map[netaddr.Prefix]struct{}, len(local))
	for _, p := range local {
		cover[p] = struct{}{}
	}
	predicted := make([]netaddr.Prefix, 0, len(v.Predicted))
	for _, p := range v.Predicted {
		if _, ok := cover[p]; ok {
			predicted = append(predicted, p)
		}
	}
	d := Decision{
		At: v.At,
		Result: inference.Result{
			Links:    append([]topology.Link(nil), v.Links...),
			FS:       v.FS,
			Received: v.Supporters,
			Accepted: true,
		},
		Predicted:      predicted,
		RulesInstalled: e.fib.Writes() - before,
		External:       true,
	}
	d.DataplaneTime = time.Duration(d.RulesInstalled) * dataplaneCost(e.cfg.RuleUpdateCost)
	e.decisions = append(e.decisions, d)
	e.cfg.Metrics.Decisions.Inc()
	e.cfg.Metrics.FusionExternal.Inc()
	e.cfg.Metrics.RulesInstalled.Add(uint64(d.RulesInstalled))
	e.logf("external reroute at %v: links %v (fused fs %.3f, %d supporters), %d prefixes corroborated, %d rules",
		v.At, v.Links, v.FS, v.Supporters, len(predicted), d.RulesInstalled)
	if e.cfg.Observer.OnDecision != nil {
		e.cfg.Observer.OnDecision(d)
	}
}

// ClearExternal retires an externally-applied verdict: the fleet's
// confirmed link set emptied (its supporting bursts ended or were
// retracted). The external tier is removed wholesale; own-inference
// rules, living in their own tier, are untouched.
func (e *Engine) ClearExternal(at time.Duration) error {
	e.extEpoch = 0
	if !e.extActive {
		return nil
	}
	e.extActive = false
	e.extLinks = e.extLinks[:0]
	if e.scheme != nil {
		e.fib.RemoveRulesAt(extReroutePriority)
	}
	return nil
}

// Vetoed returns how many inferences the fusion conflict gate deferred.
func (e *Engine) Vetoed() int { return e.vetoed }

// ExternalActive reports whether an externally-confirmed verdict is
// currently applied.
func (e *Engine) ExternalActive() bool { return e.extActive }

// ReroutePriority is the stage-2 priority of SWIFT's fast-reroute
// rules; fleet-confirmed external verdicts install one notch below at
// ExternalReroutePriority (a fresher local inference wins on overlap),
// and primary rules sit at PrimaryPriority. Exported so evaluation
// harnesses forwarding packets through the FIB can attribute a match to
// the rule class that produced it.
const (
	ReroutePriority         = 10
	ExternalReroutePriority = 9
	PrimaryPriority         = 0
)

// Internal aliases keep the engine's call sites short.
const (
	reroutePriority    = ReroutePriority
	extReroutePriority = ExternalReroutePriority
	primaryPriority    = PrimaryPriority
)

// endBurst is SWIFT's fallback (§3): BGP has converged, the RIB holds
// the post-failure routes, so remove the override rules and re-derive
// the steady-state plan and tags.
func (e *Engine) endBurst(at time.Duration) error {
	received := e.tracker.Received()
	e.cfg.Metrics.BurstsEnded.Inc()
	if d := at - e.burstStartAt; d >= 0 {
		e.cfg.Metrics.BurstDuration.Observe(d.Seconds())
	}
	e.logf("burst ended at %v: %d withdrawals total", at, received)
	if e.cfg.Observer.OnBurstEnd != nil {
		e.cfg.Observer.OnBurstEnd(at, received)
	}
	e.tracker.Reset()
	e.lastTriggerAt = 0
	// Drop fusion state with the burst: the session reconverged, so both
	// its own links and any externally-applied verdict stop mattering
	// here. A still-live fleet verdict re-applies on the next pump.
	e.ownLinks = e.ownLinks[:0]
	e.extLinks = e.extLinks[:0]
	if e.extActive {
		e.fib.RemoveRulesAt(extReroutePriority)
		e.extActive = false
	}
	e.extEpoch = 0
	if e.rerouteActive {
		e.fib.RemoveRulesAt(reroutePriority)
		e.rerouteActive = false
		// Re-provision tags against the converged RIB.
		if err := e.provision(at, true); err != nil {
			e.logf("re-provisioning failed: %v", err)
			return err
		}
	}
	return nil
}

// Release returns every path reference the engine holds to the shared
// pool: the tracker's burst pins, the primary table's routes and the
// alternate tables' routes. It is the session-teardown half of a fleet
// peer's lifecycle — a fleet that disconnects a peer releases its
// engine so the pool's refcounts drain. A released engine must not be
// fed further events.
func (e *Engine) Release() {
	e.tracker.Reset()
	e.table.Release()
	for _, t := range e.alts {
		t.Release()
	}
}

// InferredLinks returns the links of the most recent decision (nil when
// none).
func (e *Engine) InferredLinks() []topology.Link {
	if len(e.decisions) == 0 {
		return nil
	}
	return e.decisions[len(e.decisions)-1].Result.Links
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf("swift: "+format, args...)
	}
}
