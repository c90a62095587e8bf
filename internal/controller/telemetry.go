package controller

import (
	"strconv"
	"time"

	swiftengine "swift/internal/swift"
	"swift/internal/telemetry"
	"swift/internal/topology"
)

// FleetTelemetry owns the per-peer metric families of an engine fleet
// and hands each new engine its pre-resolved handles. Construction
// registers the families once; EngineMetrics resolves one peer's label
// set once at peer creation — after that the hot path never sees a map.
//
// Wiring is one call: pass the fleet's FleetConfig through Instrument
// before NewFleet, then RegisterFleetMetrics after, and every engine,
// the shared pool and the per-peer FIBs report into the registry.
type FleetTelemetry struct {
	ring *telemetry.BurstRing

	withdrawals         *telemetry.CounterVec
	announcements       *telemetry.CounterVec
	burstsStarted       *telemetry.CounterVec
	burstsEnded         *telemetry.CounterVec
	decisions           *telemetry.CounterVec
	rules               *telemetry.CounterVec
	deferred            *telemetry.CounterVec
	provisions          *telemetry.CounterVec
	provisionsUnchanged *telemetry.CounterVec
	inferLatency        *telemetry.HistogramVec
	burstDuration       *telemetry.HistogramVec

	fusionProposals *telemetry.CounterVec
	fusionVetoed    *telemetry.CounterVec
	fusionExternal  *telemetry.CounterVec
	fusionVerdicts  *telemetry.Counter
	corroborating   *telemetry.Histogram
}

// NewFleetTelemetry registers the per-peer engine families on reg.
// ring, when non-nil, receives every peer's burst lifecycle records.
func NewFleetTelemetry(reg *telemetry.Registry, ring *telemetry.BurstRing) *FleetTelemetry {
	return &FleetTelemetry{
		ring: ring,
		withdrawals: reg.CounterVec("swift_peer_withdrawals_total",
			"Withdrawal events applied, per monitored peer.", "peer"),
		announcements: reg.CounterVec("swift_peer_announcements_total",
			"Announcement events applied, per monitored peer.", "peer"),
		burstsStarted: reg.CounterVec("swift_peer_bursts_started_total",
			"Withdrawal bursts opened by the detector, per peer.", "peer"),
		burstsEnded: reg.CounterVec("swift_peer_bursts_ended_total",
			"Withdrawal bursts closed by the detector, per peer.", "peer"),
		decisions: reg.CounterVec("swift_peer_decisions_total",
			"Accepted inferences (fast-reroute activations), per peer.", "peer"),
		rules: reg.CounterVec("swift_peer_rules_installed_total",
			"Stage-2 reroute rule writes performed, per peer.", "peer"),
		deferred: reg.CounterVec("swift_peer_inferences_deferred_total",
			"Inferences rejected by the plausibility gate, per peer.", "peer"),
		provisions: reg.CounterVec("swift_peer_provisions_total",
			"Successful provision passes (initial and fallback), per peer.", "peer"),
		provisionsUnchanged: reg.CounterVec("swift_peer_provisions_unchanged_total",
			"Fallback provisions skipped because BGP reconverged onto the provisioned routes, per peer.", "peer"),
		inferLatency: reg.HistogramVec("swift_peer_infer_latency_seconds",
			"Inference computation latency per run (accepted or not).",
			telemetry.DefLatencyBuckets, "peer"),
		burstDuration: reg.HistogramVec("swift_peer_burst_duration_seconds",
			"Closed burst duration on the virtual stream clock.",
			telemetry.DefDurationBuckets, "peer"),
		fusionProposals: reg.CounterVec("swift_fusion_evidence_total",
			"Inferences offered to the fleet fusion gate as evidence, per peer.", "peer"),
		fusionVetoed: reg.CounterVec("swift_fusion_vetoed_total",
			"Inferences the fusion conflict gate deferred, per peer.", "peer"),
		fusionExternal: reg.CounterVec("swift_fusion_pretrigger_total",
			"Externally-confirmed verdicts applied as pre-trigger reroutes, per peer.", "peer"),
		fusionVerdicts: reg.Counter("swift_fusion_verdicts_total",
			"Links confirmed by the fusion combining rule."),
		corroborating: reg.Histogram("swift_fusion_corroborating_peers",
			"Distinct peers supporting each link at confirmation time.",
			[]float64{1, 2, 3, 4, 6, 8}),
	}
}

// EngineMetrics resolves one peer's pre-resolved handle set.
func (t *FleetTelemetry) EngineMetrics(key PeerKey) swiftengine.Metrics {
	peer := key.String()
	return swiftengine.Metrics{
		Withdrawals:         t.withdrawals.With(peer),
		Announcements:       t.announcements.With(peer),
		BurstsStarted:       t.burstsStarted.With(peer),
		BurstsEnded:         t.burstsEnded.With(peer),
		Decisions:           t.decisions.With(peer),
		RulesInstalled:      t.rules.With(peer),
		InferencesDeferred:  t.deferred.With(peer),
		Provisions:          t.provisions.With(peer),
		ProvisionsUnchanged: t.provisionsUnchanged.With(peer),
		FusionProposals:     t.fusionProposals.With(peer),
		FusionVetoed:        t.fusionVetoed.With(peer),
		FusionExternal:      t.fusionExternal.With(peer),
		InferLatency:        t.inferLatency.With(peer),
		BurstDuration:       t.burstDuration.With(peer),
	}
}

// Instrument returns cfg with telemetry injected: every engine the
// fleet builds gets its pre-resolved Metrics handles and, when the
// telemetry has a trace ring, a TraceObserver composed in front of any
// observer the factory set. The rest of cfg passes through untouched.
func (t *FleetTelemetry) Instrument(cfg FleetConfig) FleetConfig {
	inner := cfg.Engine
	cfg.Engine = func(key PeerKey) swiftengine.Config {
		var ecfg swiftengine.Config
		if inner != nil {
			ecfg = inner(key)
		}
		ecfg.Metrics = t.EngineMetrics(key)
		if t.ring != nil {
			ecfg.Observer = swiftengine.TraceObserver(t.ring, key.String()).Then(ecfg.Observer)
		}
		return ecfg
	}
	if cfg.Fusion != nil && cfg.Fusion.OnVerdict == nil {
		cfg.Fusion.OnVerdict = func(_ topology.Link, supporters int, _ float64) {
			t.fusionVerdicts.Inc()
			t.corroborating.Observe(float64(supporters))
		}
	}
	return cfg
}

// PeerStatus is one fleet peer's operational snapshot — the /peers
// row of the ops plane.
type PeerStatus struct {
	Peer          string        `json:"peer"`
	AS            uint32        `json:"as"`
	Withdrawals   uint64        `json:"withdrawals"`
	Announcements uint64        `json:"announcements"`
	LastAt        time.Duration `json:"last_at_ns"`
	Provisioned   bool          `json:"provisioned"`
	RerouteActive bool          `json:"reroute_active"`
	Decisions     int           `json:"decisions"`
	Deferred      int           `json:"deferred"`
	RIBPrefixes   int           `json:"rib_prefixes"`
	FIBTags       int           `json:"fib_tags"`
	FIBRules      int           `json:"fib_rules"`
}

// Status snapshots the peer, locking its engine briefly.
func (p *FleetPeer) Status() PeerStatus {
	st := PeerStatus{
		Peer:          p.key.String(),
		AS:            p.key.AS,
		Withdrawals:   p.withdrawals.Load(),
		Announcements: p.announcements.Load(),
		LastAt:        p.LastAt(),
	}
	p.mu.Lock()
	st.Provisioned = p.engine.Scheme() != nil
	st.RerouteActive = p.engine.RerouteActive()
	st.Decisions = p.engine.NumDecisions()
	st.Deferred = p.engine.Deferred()
	st.RIBPrefixes = p.engine.RIB().Len()
	st.FIBTags = p.engine.FIB().NumTags()
	st.FIBRules = p.engine.FIB().NumRules()
	p.mu.Unlock()
	return st
}

// PeerStatuses snapshots every peer, sorted by key.
func (f *Fleet) PeerStatuses() []PeerStatus {
	peers := f.Peers()
	out := make([]PeerStatus, 0, len(peers))
	for _, p := range peers {
		out = append(out, p.Status())
	}
	return out
}

// RegisterFleetMetrics exports the fleet's aggregate and scrape-time
// state on reg: delivery counters (sampled from the fleet's own
// atomics, so nothing is double-counted), pool occupancy and shard
// balance, and per-peer FIB sizes (Reset-and-refill each scrape, so
// closed peers don't linger as stale series).
func RegisterFleetMetrics(reg *telemetry.Registry, f *Fleet) {
	reg.CounterFunc("swift_fleet_batches_total",
		"Event batches enqueued across all peers.",
		func() uint64 { return f.batches.Load() })
	reg.CounterFunc("swift_fleet_events_total",
		"Withdraw/announce events applied across all peers (ticks excluded).",
		func() uint64 { return f.ops.Load() })

	peers := reg.Gauge("swift_fleet_peers", "Live peers in the fleet.")
	rerouting := reg.Gauge("swift_fleet_rerouting_peers",
		"Peers with fast-reroute rules installed right now.")
	reg.CounterFunc("swift_fleet_ring_full_total",
		"Batch pushes that found their shard ring full and had to block (backpressure).",
		func() uint64 {
			var n uint64
			for _, w := range f.workers {
				n += w.full.Load()
			}
			return n
		})
	ringDepth := reg.GaugeVec("swift_fleet_ring_depth",
		"Deliveries buffered in each shard worker's ring.", "shard")
	shardPeers := reg.GaugeVec("swift_fleet_shard_peers",
		"Live peers pinned to each shard worker.", "shard")
	poolPaths := reg.Gauge("swift_pool_paths", "Live interned AS paths in the shared pool.")
	poolLinks := reg.Gauge("swift_pool_links", "Numbered AS links in the shared pool.")
	poolFree := reg.Gauge("swift_pool_free_slots", "Freed intern slots awaiting reuse.")
	poolLimbo := reg.Gauge("swift_pool_limbo_paths", "Unreferenced AS paths still indexed, awaiting revival or the sweep.")
	poolShardMax := reg.Gauge("swift_pool_shard_paths_max",
		"Most-loaded intern shard's live path count (compare against swift_pool_paths/16 for balance).")
	fibTags := reg.GaugeVec("swift_fib_tags", "Stage-1 tagged prefixes, per peer.", "peer")
	fibRules := reg.GaugeVec("swift_fib_rules", "Stage-2 rules installed, per peer.", "peer")
	ribPrefixes := reg.GaugeVec("swift_rib_prefixes", "Primary RIB prefixes, per peer.", "peer")

	if agg := f.Fusion(); agg != nil {
		reg.GaugeFunc("swift_fusion_bursting_peers",
			"Fleet peers currently in-burst as seen by the fusion aggregator.",
			func() float64 { return float64(agg.Stats().Bursting) })
		reg.GaugeFunc("swift_fusion_verdict_links",
			"Links currently confirmed by the fusion combining rule.",
			func() float64 { return float64(agg.Stats().VerdictLinks) })
		reg.CounterFunc("swift_fusion_epoch",
			"Fusion verdict epoch (bumps whenever the confirmed link set changes).",
			func() uint64 { return agg.Stats().Epoch })
	}

	reg.OnScrape(func() {
		ps := f.pool.Stats()
		poolPaths.Set(float64(ps.Paths))
		poolLinks.Set(float64(ps.Links))
		poolFree.Set(float64(ps.FreeSlots))
		poolLimbo.Set(float64(ps.Limbo))
		poolShardMax.Set(float64(ps.MaxShardPaths()))
		rerouting.Set(float64(f.rerouting.Load()))

		fibTags.Reset()
		fibRules.Reset()
		ribPrefixes.Reset()
		list := f.Peers()
		peers.Set(float64(len(list)))
		perShard := make([]int, len(f.workers))
		for _, p := range list {
			st := p.Status()
			fibTags.With(st.Peer).Set(float64(st.FIBTags))
			fibRules.With(st.Peer).Set(float64(st.FIBRules))
			ribPrefixes.With(st.Peer).Set(float64(st.RIBPrefixes))
			perShard[p.worker.idx]++
		}
		for _, w := range f.workers {
			shard := strconv.Itoa(w.idx)
			ringDepth.With(shard).Set(float64(w.ring.Len()))
			shardPeers.With(shard).Set(float64(perShard[w.idx]))
		}
	})
}
