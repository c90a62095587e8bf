package scenario

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"swift/internal/bgpsim"
	"swift/internal/burst"
	"swift/internal/controller"
	"swift/internal/dataplane"
	"swift/internal/encoding"
	"swift/internal/event"
	"swift/internal/fusion"
	"swift/internal/inference"
	"swift/internal/netaddr"
	"swift/internal/reroute"
	swiftengine "swift/internal/swift"
)

// captureSink records the batches a Source emits, so the evaluation
// loop can replay the exact interleaved stream (BurstSource's
// timestamp-merged multi-peer batches) in virtual-time slices.
type captureSink struct {
	batches []event.Batch
}

func (c *captureSink) Apply(b event.Batch) error {
	c.batches = append(c.batches, b)
	return nil
}

// flow is one synthetic traffic flow: a destination address inside one
// prefix of the session table, sending one packet per tick.
type flow struct {
	prefix netaddr.Prefix
	origin uint32
	addr   uint32
}

// fibWrite is one queued write of the vanilla-router FIB model: the
// update becomes visible at eff, after waiting behind earlier writes
// (per-prefix FIB rewrite, Table 1's convergence bottleneck). nh == 0
// removes the route.
type fibWrite struct {
	eff    time.Duration
	prefix netaddr.Prefix
	nh     uint32
}

// peerState is the per-session evaluation context.
type peerState struct {
	sess  Session
	flows []flow
	// table is the session's full prefix count (the flow set may be a
	// sample of it).
	table int
	truth map[netaddr.Prefix]bool // prefixes withdrawn on the session

	// Vanilla-router model: a real FIB whose stage-1 entries map each
	// prefix to its current next-hop's tag, updated per message with
	// write-queue lag.
	bgpFIB  *dataplane.FIB
	tagByNH map[uint32]encoding.Tag
	writes  []fibWrite
	wIdx    int

	// Fed by the fleet observer (under the peer lock; read under Do or
	// after a sync barrier). divertReady records, per predicted prefix,
	// when the first rule batch covering it finished installing: rule
	// updates are make-before-break, so later incremental decisions do
	// not re-blackhole flows that are already diverted. rerouteReady is
	// the FIRST batch's completion — the fallback bound for a prefix a
	// rule matches without it appearing in any predicted set (an
	// approximation: such a prefix diverted only by a later batch's
	// rules is charged against the first install window).
	rerouteReady time.Duration
	divertReady  map[netaddr.Prefix]time.Duration
	predicted    map[netaddr.Prefix]bool
	decisions    int
	external     int // fused-verdict pre-triggers applied to this peer
	vetoed       int // own inferences the fusion gate deferred

	// Scoring. addrs is the flow set's destination burst, built once;
	// the per-dataplane result slices are reused every tick so the two
	// FIBs forward the whole set in one ForwardBatch/ForwardDetailBatch
	// call each instead of one pipeline walk per packet.
	addrs                      []uint32
	nhB, nhS                   []uint32
	okB, okS                   []bool
	prioS                      []int
	ticks                      int
	swiftLost, bgpLost         int64
	lastSwiftLoss, lastBGPLoss time.Duration
	affected                   []bool
}

// Eval replays the scenario and scores packet-level loss with SWIFT
// enabled (the engine fleet's FIBs, fast-reroute overlay included) and
// disabled (the vanilla per-prefix-write router) on the same stream.
//
// fused enables fleet-level evidence fusion: the sessions share one
// fusion.Aggregator, wrong-link inferences conflicting with stronger
// fleet evidence are vetoed, and confirmed verdicts pre-trigger
// reroutes on lagging sessions. The stream is then delivered in
// per-peer segments with sync barriers in between, so evidence reaches
// the aggregator in exact stream order and the run is byte-deterministic
// like the per-peer one.
func (sc *Scenario) Eval(fused bool) (*Report, error) {
	spec := sc.Spec

	// 1. Capture the interleaved multi-session stream once.
	keys := make([]event.PeerKey, 0, len(sc.Sessions))
	bursts := make([]*bgpsim.Burst, 0, len(sc.Sessions))
	for _, s := range sc.Sessions {
		keys = append(keys, s.Peer)
		bursts = append(bursts, s.Burst)
	}
	src := &bgpsim.BurstSource{Bursts: bursts, Peers: keys}
	capture := &captureSink{}
	if err := src.Run(capture); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	var events []event.Event
	for _, b := range capture.batches {
		events = append(events, b...)
	}
	var lastEv time.Duration
	for _, ev := range events {
		if ev.Kind != event.KindTick && ev.At > lastEv {
			lastEv = ev.At
		}
	}
	horizon := lastEv + spec.SettleAfter

	// 2. Per-session evaluation state.
	neighbors := make([]uint32, 0, len(sc.NeighborRIBs))
	for nb := range sc.NeighborRIBs {
		neighbors = append(neighbors, nb)
	}
	sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
	peers := make([]*peerState, len(sc.Sessions))
	byKey := make(map[event.PeerKey]*peerState, len(sc.Sessions))
	for i, sess := range sc.Sessions {
		pe := sc.newPeerState(sess, neighbors)
		peers[i] = pe
		byKey[sess.Peer] = pe
	}

	// 3. The SWIFT fleet: one engine per session, shared path pool,
	// loss-relevant lifecycle points observed per peer. The operator
	// policy ranks the guaranteed-detour neighbor cheapest, so viable
	// backups prefer the path the failure cannot touch (§3.2's
	// rerouting policies).
	var policy *reroute.Policy
	if sc.Backup != 0 {
		cost := make(map[uint32]int, len(neighbors))
		for _, nb := range neighbors {
			if nb != sc.Backup {
				cost[nb] = 10
			}
		}
		policy = &reroute.Policy{Cost: cost}
	}
	var fusionCfg *fusion.Config
	if fused {
		// ManualPump: verdicts fan out only at the loop's own tick
		// barriers below, never from a background goroutine.
		fusionCfg = &fusion.Config{ManualPump: true}
	}
	var provisionErr error
	fleet := controller.NewFleet(controller.FleetConfig{
		Fusion: fusionCfg,
		Engine: func(key controller.PeerKey) swiftengine.Config {
			return swiftengine.Config{
				LocalAS:         sc.Vantage,
				PrimaryNeighbor: byKey[key].sess.Neighbor,
				ReroutePolicy:   policy,
				Inference: inference.Config{
					TriggerEvery: spec.TriggerEvery,
					// The paper's plausibility gate is calibrated for
					// Internet-scale bursts; scenario bursts are orders of
					// magnitude smaller, so inferences stand on their own.
					UseHistory: false,
				},
				Encoding: encoding.Config{MinPrefixes: 1},
				Burst: burst.Config{
					Window:         spec.Window,
					StartThreshold: spec.BurstStart,
				},
				RuleUpdateCost: spec.RuleUpdateCost,
			}
		},
		OnPeer: func(p *controller.FleetPeer) {
			pe := byKey[p.Key()]
			sc.loadPeer(p, pe.sess)
			if err := p.Provision(); err != nil && provisionErr == nil {
				provisionErr = err
			}
		},
		Observer: controller.FleetObserver{
			OnDecision: func(key controller.PeerKey, d swiftengine.Decision) {
				pe := byKey[key]
				if d.External {
					pe.external++
				} else {
					pe.decisions++
				}
				ready := d.At + d.DataplaneTime
				// First batch only: later decisions refine the rule set
				// make-before-break, so a flow matched by rules since
				// the first install is never re-blackholed.
				if pe.rerouteReady == 0 {
					pe.rerouteReady = ready
				}
				// An external verdict only widens the rule set; prefixes it
				// newly predicts were already diverted by any earlier
				// batch's link-granular rules, so never push their charged
				// divert time past the first install window.
				if d.External && pe.rerouteReady < ready {
					ready = pe.rerouteReady
				}
				for _, p := range d.Predicted {
					pe.predicted[p] = true
					if _, ok := pe.divertReady[p]; !ok {
						pe.divertReady[p] = ready
					}
				}
			},
		},
	})
	defer fleet.Close()
	// Create (and provision) every peer up front, on this goroutine:
	// flows are scored from t = 0, before any event arrives.
	for _, s := range sc.Sessions {
		fleet.Peer(s.Peer)
	}
	if provisionErr != nil {
		return nil, fmt.Errorf("scenario %q: provision: %w", spec.Name, provisionErr)
	}

	// deliver hands a stream slice to the fleet. Per-peer evaluation
	// rides the fleet's concurrent per-peer queues as-is. Fused
	// evaluation serializes: maximal same-peer runs with a sync barrier
	// between them, so the shared aggregator observes proposals in exact
	// stream order and verdicts (and vetoes) are deterministic.
	deliver := func(evs []event.Event) error {
		if !fused {
			return fleet.Apply(evs)
		}
		for len(evs) > 0 {
			k := 1
			for k < len(evs) && evs[k].Peer == evs[0].Peer {
				k++
			}
			if err := fleet.Apply(evs[:k]); err != nil {
				return err
			}
			fleet.Sync()
			evs = evs[k:]
		}
		return nil
	}

	// 4. The virtual-time loop: deliver the stream slice up to each
	// tick, then forward every flow through both dataplanes.
	cursor := 0
	for t := spec.Tick; ; t += spec.Tick {
		j := cursor
		for j < len(events) && events[j].At <= t {
			j++
		}
		if j > cursor {
			if err := deliver(events[cursor:j]); err != nil {
				return nil, err
			}
			cursor = j
		}
		fleet.Sync()
		if fused {
			// Fan the fused verdict out at the tick barrier — the manual
			// pump point; pre-triggered peers record external decisions.
			fleet.FusePump(t)
		}
		for _, pe := range peers {
			pe.applyWrites(t)
			sc.scoreTick(fleet, pe, t)
		}
		if t >= horizon {
			break
		}
	}
	// Drain the tail (the closing ticks) so bursts end and the engines
	// run their burst-end fallback; not scored.
	if cursor < len(events) {
		if err := deliver(events[cursor:]); err != nil {
			return nil, err
		}
	}
	fleet.Sync()
	if fused {
		for _, s := range sc.Sessions {
			if p, ok := fleet.Lookup(s.Peer); ok {
				pe := byKey[s.Peer]
				p.Do(func(e *swiftengine.Engine) { pe.vetoed = e.Vetoed() })
			}
		}
	}
	fleet.Close()

	// 5. Report.
	mode := ModePerPeer
	if fused {
		mode = ModeFused
	}
	rep := &Report{
		Name:     spec.Name,
		Mode:     mode,
		Seed:     spec.Seed,
		Remote:   sc.Remote(),
		Failure:  sc.FailureDesc,
		ASes:     sc.Net.Graph.NumASes(),
		Links:    sc.Net.Graph.NumLinks(),
		Prefixes: sc.Net.TotalPrefixes(),
		Sessions: len(sc.Sessions),
		Events:   src.Events,
	}
	for _, pe := range peers {
		rep.Peers = append(rep.Peers, pe.report())
	}
	rep.aggregate()
	return rep, nil
}

// newPeerState builds a session's flows, ground truth and vanilla-FIB
// model.
func (sc *Scenario) newPeerState(sess Session, neighbors []uint32) *peerState {
	spec := sc.Spec
	pe := &peerState{
		sess:        sess,
		predicted:   make(map[netaddr.Prefix]bool),
		divertReady: make(map[netaddr.Prefix]time.Duration),
		truth:       make(map[netaddr.Prefix]bool),
		bgpFIB:      dataplane.New(dataplane.Config{RuleUpdateCost: spec.PerPrefixUpdate}),
		tagByNH:     make(map[uint32]encoding.Tag, len(neighbors)),
	}

	// The vanilla FIB's trivial encoding: one tag and one exact-match
	// rule per vantage neighbor.
	for i, nb := range neighbors {
		tag := encoding.Tag(i + 1)
		pe.tagByNH[nb] = tag
		pe.bgpFIB.InstallRule(encoding.Rule{Value: tag, Mask: ^encoding.Tag(0), NextHop: nb})
	}

	// Initial state: every session prefix forwarded via the session
	// neighbor. Flows sample the table with an even stride.
	prefixes := prefixesOf(sc.Net, sess.RIB)
	pe.table = len(prefixes)
	own := pe.tagByNH[sess.Neighbor]
	for _, p := range prefixes {
		pe.bgpFIB.SetTag(p, own)
	}
	n := spec.MaxFlows
	if n > len(prefixes) {
		n = len(prefixes)
	}
	for k := 0; k < n; k++ {
		p := prefixes[k*len(prefixes)/n]
		origin, _, _ := netaddr.PrefixOrigin(p)
		pe.flows = append(pe.flows, flow{prefix: p, origin: origin, addr: p.Addr()})
	}
	pe.affected = make([]bool, len(pe.flows))
	pe.addrs = make([]uint32, len(pe.flows))
	for i := range pe.flows {
		pe.addrs[i] = pe.flows[i].addr
	}
	pe.nhB = make([]uint32, len(pe.flows))
	pe.nhS = make([]uint32, len(pe.flows))
	pe.okB = make([]bool, len(pe.flows))
	pe.okS = make([]bool, len(pe.flows))
	pe.prioS = make([]int, len(pe.flows))

	// Ground truth and the write queue, on the vanilla router's
	// message-by-message FIB-write schedule. A withdrawal lands on the
	// converged post-failure next hop (the locally known alternate); an
	// announcement installs the announced path's next hop.
	done := sess.Burst.FIBWrites(spec.PerPrefixUpdate)
	for i, ev := range sess.Burst.Events {
		w := fibWrite{eff: done[i], prefix: ev.Prefix}
		switch ev.Kind {
		case bgpsim.KindWithdraw:
			pe.truth[ev.Prefix] = true
			w.nh = sc.convergedNH[ev.Origin]
		case bgpsim.KindAnnounce:
			if len(ev.Path) > 0 {
				w.nh = ev.Path[0]
			}
		}
		pe.writes = append(pe.writes, w)
	}
	return pe
}

// loadPeer installs the session's primary table and every other
// neighbor's table as alternates, in deterministic order.
func (sc *Scenario) loadPeer(p *controller.FleetPeer, sess Session) {
	learn := func(rib map[uint32][]uint32, fn func(pfx netaddr.Prefix, path []uint32)) {
		origins := make([]uint32, 0, len(rib))
		for o := range rib {
			origins = append(origins, o)
		}
		sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
		for _, o := range origins {
			path := rib[o]
			for i := 0; i < sc.Net.Origins[o]; i++ {
				fn(netaddr.PrefixFor(o, i), path)
			}
		}
	}
	learn(sess.RIB, p.LearnPrimary)
	alts := make([]uint32, 0, len(sc.NeighborRIBs))
	for nb := range sc.NeighborRIBs {
		if nb != sess.Neighbor {
			alts = append(alts, nb)
		}
	}
	sort.Slice(alts, func(i, j int) bool { return alts[i] < alts[j] })
	for _, nb := range alts {
		nb := nb
		learn(sc.NeighborRIBs[nb], func(pfx netaddr.Prefix, path []uint32) {
			p.LearnAlternate(nb, pfx, path)
		})
	}
}

// applyWrites makes every vanilla-router FIB write due by t visible.
func (pe *peerState) applyWrites(t time.Duration) {
	for pe.wIdx < len(pe.writes) && pe.writes[pe.wIdx].eff <= t {
		w := pe.writes[pe.wIdx]
		pe.wIdx++
		if w.nh == 0 {
			pe.bgpFIB.RemoveTag(w.prefix)
		} else {
			pe.bgpFIB.SetTag(w.prefix, pe.tagByNH[w.nh])
		}
	}
}

// scoreTick forwards one packet per flow through both dataplanes at
// virtual time t and charges losses.
//
// SWIFT path: the engine FIB's verdict stands when a fast-reroute rule
// matched — the packet is diverted to the rule's backup next hop, and
// it is charged as lost while the rule batch is still being written
// (between the decision and rerouteReady) or when the backup does not
// actually reach the origin post-failure. When no reroute rule matched
// (primary rule or no tag), the SWIFTED router forwards exactly like
// the vanilla router underneath — SWIFT is an overlay, BGP still
// converges the base FIB — so the vanilla verdict applies.
func (sc *Scenario) scoreTick(fleet *controller.Fleet, pe *peerState, t time.Duration) {
	pe.ticks++
	p, ok := fleet.Lookup(pe.sess.Peer)
	if !ok {
		return
	}
	// Both dataplanes forward the whole flow set in one burst: the
	// vanilla router's FIB outside the peer lock, the engine's under it.
	pe.bgpFIB.ForwardBatch(pe.addrs, pe.nhB, pe.okB)
	p.Do(func(e *swiftengine.Engine) {
		e.FIB().ForwardDetailBatch(pe.addrs, pe.nhS, pe.prioS, pe.okS)
		for i := range pe.flows {
			f := &pe.flows[i]
			delB := pe.okB[i] && sc.oracleValid(pe.nhB[i], f.origin, t)

			delS := delB
			if prio := pe.prioS[i]; pe.okS[i] &&
				(prio == swiftengine.ReroutePriority || prio == swiftengine.ExternalReroutePriority) {
				ready, known := pe.divertReady[f.prefix]
				if !known {
					ready = pe.rerouteReady
				}
				if t >= ready {
					delS = sc.oracleValid(pe.nhS[i], f.origin, t)
				}
				// Before ready the rule batch is still being written;
				// updates are make-before-break, so the pre-reroute
				// state governs: a withdrawn flow stays blackholed
				// (delB false — the charged install latency), a
				// still-routed flow keeps flowing on its primary.
			}

			if !delB {
				pe.bgpLost++
				pe.lastBGPLoss = t
				pe.affected[i] = true
			}
			if !delS {
				pe.swiftLost++
				pe.lastSwiftLoss = t
			}
		}
	})
}

// report folds a finished peer evaluation into its report row.
func (pe *peerState) report() PeerReport {
	r := PeerReport{
		Peer:         pe.sess.Peer.String(),
		Neighbor:     pe.sess.Neighbor,
		Flows:        len(pe.flows),
		Ticks:        pe.ticks,
		PacketsSent:  int64(len(pe.flows)) * int64(pe.ticks),
		SwiftLost:    pe.swiftLost,
		BGPLost:      pe.bgpLost,
		SwiftRestore: pe.lastSwiftLoss,
		BGPRestore:   pe.lastBGPLoss,
		Decisions:    pe.decisions,
		External:     pe.external,
		Vetoed:       pe.vetoed,
		Withdrawn:    len(pe.truth),
		Predicted:    len(pe.predicted),
	}
	for i := range pe.affected {
		if pe.affected[i] {
			r.FlowsAffected++
		}
	}
	for p := range pe.predicted {
		if pe.truth[p] {
			r.TP++
		} else {
			r.FP++
		}
	}
	r.FN = len(pe.truth) - r.TP
	if negatives := pe.table - len(pe.truth); negatives > 0 {
		r.FPR = float64(r.FP) / float64(negatives)
	}
	if len(pe.truth) > 0 {
		r.FNR = float64(r.FN) / float64(len(pe.truth))
	}
	return r
}

// RunMode builds and evaluates every scenario of the named matrix,
// fanning scenarios out over the available cores; the report order is
// the matrix order, so the output is deterministic regardless of
// parallelism. fused enables fleet-level evidence fusion (see Eval)
// on every scenario.
func RunMode(matrix string, seed int64, fused bool) (*MatrixReport, error) {
	specs, err := Matrix(matrix, seed)
	if err != nil {
		return nil, err
	}
	return RunSpecsMode(matrix, seed, specs, fused)
}

// RunSpecsMode is RunMode over an explicit scenario list.
func RunSpecsMode(matrix string, seed int64, specs []Spec, fused bool) (*MatrixReport, error) {
	mode := ModePerPeer
	if fused {
		mode = ModeFused
	}
	rep := &MatrixReport{Matrix: matrix, Mode: mode, Seed: seed, Scenarios: make([]*Report, len(specs))}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		errs []error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				failed := len(errs) > 0
				mu.Unlock()
				if failed || i >= len(specs) {
					return
				}
				r, err := evalSpec(specs[i], fused)
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("scenario %q: %w", specs[i].Name, err))
				} else {
					rep.Scenarios[i] = r
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errs[0]
	}
	rep.aggregate()
	return rep, nil
}

func evalSpec(spec Spec, fused bool) (*Report, error) {
	sc, err := Build(spec)
	if err != nil {
		return nil, err
	}
	return sc.Eval(fused)
}
