// Package scenario is the failure-scenario engine: a seeded,
// deterministic generator of diverse topology/failure scenarios plus a
// packet-level evaluation loop that scores each one by actual per-flow
// connectivity loss through the real two-stage FIB.
//
// The SWIFT paper's headline claim (§6) is reduced *traffic* loss
// during remote-outage convergence. The figure experiments in
// internal/experiments reproduce the paper's decision metrics; this
// package closes the loop to packets: every scenario builds a routed
// topology, injects a failure, replays the resulting BGP message
// stream into a fleet of SWIFT engines, and forwards a synthetic flow
// set through each engine's dataplane.FIB (stage-1 LPM tag lookup,
// stage-2 ternary match) at every virtual-time tick. A packet is lost
// while its flow is blackholed — between failure onset and the instant
// a rule that diverts it has finished installing — and delivered when
// the FIB hands it to a next-hop the post-failure routing actually
// serves. The same stream is scored against a vanilla router model
// (per-prefix FIB writes as messages arrive), so each scenario reports
// SWIFT-on and SWIFT-off loss side by side, with prediction FPR/FNR
// against the burst's ground truth.
//
// Everything is derived from Spec.Seed: same spec, same report.
package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"swift/internal/bgpsim"
	"swift/internal/dataplane"
	"swift/internal/event"
	"swift/internal/netaddr"
	"swift/internal/topology"
)

// TopologyKind selects the scenario's topology family.
type TopologyKind uint8

const (
	// TopoFig1 is the paper's running example (Fig. 1).
	TopoFig1 TopologyKind = iota
	// TopoGenerated is a synthetic power-law topology (§6.1).
	TopoGenerated
)

// FailureKind selects what fails.
type FailureKind uint8

const (
	// FailLink fails a single remote AS link.
	FailLink FailureKind = iota
	// FailAS fails a whole AS: every adjacent link at once (§4.2).
	FailAS
)

// Spec is one scenario's complete parameterization. The zero value of
// every knob selects a sensible default (see withDefaults), so matrix
// generators only set what varies.
type Spec struct {
	Name string
	Seed int64

	// Topology.
	Topology          TopologyKind
	NumASes           int     // generated topologies (default 32)
	AvgDegree         float64 // generated topologies (default 5)
	NumOrigins        int     // generated topologies (default 8)
	PrefixesPerOrigin int     // default 40

	// Failure.
	Failure  FailureKind
	HopsAway int // AS-hop distance of the failed link from the vantage edge (default 2)

	// Burst shaping.
	Peers           int           // monitored sessions (default 1)
	PeerSkew        time.Duration // per-session onset skew
	PartialWithdraw float64       // fraction of withdrawals kept (0 or 1 = all)
	Flap            bool          // transient failure: resource recovers, routes re-announced
	FlapDelay       time.Duration // recovery delay past the burst (default 1.5s)
	Noise           int           // unrelated withdrawals injected into each burst

	// Engine knobs, scaled down from the paper's Internet-size defaults
	// so small scenarios still trigger detection and inference.
	TriggerEvery int           // default 15
	BurstStart   int           // default 20
	Window       time.Duration // default 5s

	// Evaluation loop.
	Tick            time.Duration // virtual-time step (default 10ms)
	MaxFlows        int           // per-session flow cap (default 256)
	SettleAfter     time.Duration // scored time past the last event (default 300ms)
	RuleUpdateCost  time.Duration // SWIFT rule write cost (default dataplane.DefaultRuleUpdate)
	PerPrefixUpdate time.Duration // vanilla router per-prefix FIB write (default bgpsim.PerPrefixUpdate)
}

func (s Spec) withDefaults() Spec {
	if s.NumASes <= 0 {
		s.NumASes = 32
	}
	if s.AvgDegree <= 0 {
		s.AvgDegree = 5
	}
	if s.NumOrigins <= 0 {
		s.NumOrigins = 8
	}
	if s.PrefixesPerOrigin <= 0 {
		s.PrefixesPerOrigin = 40
	}
	if s.HopsAway <= 0 {
		s.HopsAway = 2
	}
	if s.Peers <= 0 {
		s.Peers = 1
	}
	if s.FlapDelay <= 0 {
		s.FlapDelay = 1500 * time.Millisecond
	}
	if s.TriggerEvery <= 0 {
		s.TriggerEvery = 15
	}
	if s.BurstStart <= 0 {
		s.BurstStart = 20
	}
	if s.Window <= 0 {
		s.Window = 5 * time.Second
	}
	if s.Tick <= 0 {
		s.Tick = 10 * time.Millisecond
	}
	if s.MaxFlows <= 0 {
		s.MaxFlows = 256
	}
	if s.SettleAfter <= 0 {
		s.SettleAfter = 300 * time.Millisecond
	}
	if s.RuleUpdateCost <= 0 {
		s.RuleUpdateCost = dataplane.DefaultRuleUpdate
	}
	if s.PerPrefixUpdate <= 0 {
		s.PerPrefixUpdate = bgpsim.PerPrefixUpdate
	}
	return s
}

// Session is one monitored BGP session of the scenario's vantage
// router, with the failure's message stream as observed there.
type Session struct {
	Peer     event.PeerKey
	Neighbor uint32
	// RIB is the pre-failure Adj-RIB-In: origin -> announced path.
	RIB map[uint32][]uint32
	// Burst is the session's replayed (and mutated) message stream.
	Burst *bgpsim.Burst
}

// Scenario is a built, evaluable failure scenario.
type Scenario struct {
	Spec     Spec
	Net      *bgpsim.Network
	Vantage  uint32
	Sessions []Session
	Failed   []topology.Link
	// FailureDesc names the fault for the report.
	FailureDesc string
	// Backup is the neighbor guaranteed to keep a valid detour for
	// every origin (Fig. 1's AS 3; the partial-transit provider in
	// generated topologies). The engines' reroute policy ranks it
	// cheapest.
	Backup uint32
	// NeighborRIBs holds every vantage neighbor's pre-failure export
	// (neighbor -> origin -> path): a session's primary table, and the
	// alternate tables its engine draws backups from.
	NeighborRIBs map[uint32]map[uint32][]uint32

	// validBefore / validAfter answer, per vantage neighbor and origin,
	// whether that neighbor serves a route pre-/post-failure — the
	// oracle a forwarded packet is judged against.
	validBefore map[uint32]map[uint32]bool
	validAfter  map[uint32]map[uint32]bool
	// convergedNH is the vantage's converged post-failure next hop per
	// origin (0 = unreachable) — where the vanilla router lands after
	// processing a withdrawal.
	convergedNH map[uint32]uint32
	// recoverAt, when positive, is the virtual time the failed resource
	// comes back (flap scenarios); from then on validBefore governs.
	recoverAt time.Duration
}

// Remote reports whether the scenario injects a remote failure — no
// failed link touches the vantage itself, the class the paper targets.
// pickFailure only produces remote failures today, but the report
// field stays derived so a future local-failure class classifies
// itself correctly.
func (sc *Scenario) Remote() bool {
	for _, l := range sc.Failed {
		if l.Has(sc.Vantage) {
			return false
		}
	}
	return len(sc.Failed) > 0
}

// Build derives the complete scenario from the spec, deterministically.
func Build(spec Spec) (*Scenario, error) {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))

	net, vantage, backup, err := buildNetwork(spec, rng)
	if err != nil {
		return nil, err
	}
	solsBefore := net.Solve(net.Graph)
	neighbors := sessionNeighbors(net, vantage, spec.Peers)
	if len(neighbors) < 2 {
		return nil, fmt.Errorf("scenario %q: vantage %d has %d neighbors, need >= 2 for backups", spec.Name, vantage, len(neighbors))
	}
	primary := neighbors[0]

	failed, dead, desc, err := pickFailure(spec, rng, net, solsBefore, vantage, primary)
	if err != nil {
		return nil, err
	}

	sc := &Scenario{
		Spec:         spec,
		Net:          net,
		Vantage:      vantage,
		Failed:       failed,
		FailureDesc:  desc,
		Backup:       backup,
		NeighborRIBs: make(map[uint32]map[uint32][]uint32, len(neighbors)),
	}
	for _, nb := range neighbors {
		sc.NeighborRIBs[nb] = net.SessionRIB(solsBefore, vantage, nb)
	}

	// Per-session bursts with the spec's mutations.
	sessions := neighbors
	if len(sessions) > spec.Peers {
		sessions = sessions[:spec.Peers]
	}
	timing := func(i int) bgpsim.Timing {
		return bgpsim.DefaultTiming(spec.Seed*1000 + int64(i))
	}
	for i, nb := range sessions {
		var b *bgpsim.Burst
		var err error
		if dead != 0 {
			b, err = net.ReplayASFailure(vantage, nb, dead, timing(i))
		} else {
			b, err = net.ReplayLinkFailure(vantage, nb, failed[0], timing(i))
		}
		if err != nil {
			return nil, fmt.Errorf("scenario %q session %d: %w", spec.Name, nb, err)
		}
		if spec.PartialWithdraw > 0 && spec.PartialWithdraw < 1 {
			b.PartialWithdraw(spec.PartialWithdraw, spec.Seed*31+int64(i))
		}
		if spec.Noise > 0 {
			b.InjectNoise(net, spec.Noise, spec.Seed*37+int64(i))
		}
		if spec.PeerSkew > 0 {
			b.Shift(time.Duration(i) * spec.PeerSkew)
		}
		sc.Sessions = append(sc.Sessions, Session{
			Peer:     event.PeerKey{AS: nb, BGPID: uint32(i) + 1},
			Neighbor: nb,
			RIB:      sc.NeighborRIBs[nb],
			Burst:    b,
		})
	}
	if sc.Sessions[0].Burst.Size < spec.BurstStart {
		return nil, fmt.Errorf("scenario %q: primary burst carries %d withdrawals, below the %d detection threshold",
			spec.Name, sc.Sessions[0].Burst.Size, spec.BurstStart)
	}

	// Flap: the resource recovers at one global instant and every
	// session re-announces its withdrawn prefixes from there.
	if spec.Flap {
		var last time.Duration
		for _, s := range sc.Sessions {
			if d := s.Burst.Duration(); d > last {
				last = d
			}
		}
		sc.recoverAt = last + spec.FlapDelay
		for i, s := range sc.Sessions {
			s.Burst.Reannounce(s.RIB, sc.recoverAt, 400*time.Microsecond, spec.Seed*41+int64(i))
		}
	}

	// Oracle: pre- and post-failure reachability per (neighbor, origin),
	// and the vantage's converged next hop per origin.
	after := net.Graph
	if dead != 0 {
		after = net.Graph.WithoutAS(dead)
	} else {
		after = net.Graph.WithoutLink(failed[0].A, failed[0].B)
	}
	solsAfter := net.Solve(after)
	sc.validBefore = reachability(net, solsBefore, vantage)
	sc.validAfter = reachability(net, solsAfter, vantage)
	sc.convergedNH = make(map[uint32]uint32, len(net.Origins))
	for o := range net.Origins {
		sc.convergedNH[o] = solsAfter[o].RouteAt(vantage).NextHop()
	}
	return sc, nil
}

// reachability tabulates, for every neighbor of the vantage, which
// origins it serves a route for under sols.
func reachability(net *bgpsim.Network, sols map[uint32]*bgpsim.OriginSolution, vantage uint32) map[uint32]map[uint32]bool {
	out := make(map[uint32]map[uint32]bool)
	for _, nb := range net.Graph.Neighbors(vantage) {
		m := make(map[uint32]bool, len(net.Origins))
		for o := range net.Origins {
			if o == nb.AS {
				m[o] = true
				continue
			}
			m[o] = sols[o].RouteAt(nb.AS).Valid()
		}
		out[nb.AS] = m
	}
	return out
}

// oracleValid reports whether handing a packet for origin to next-hop
// nh at virtual time t delivers it.
func (sc *Scenario) oracleValid(nh, origin uint32, t time.Duration) bool {
	if nh == 0 {
		return false
	}
	m := sc.validAfter
	if sc.recoverAt > 0 && t >= sc.recoverAt {
		m = sc.validBefore
	}
	return m[nh][origin]
}

// buildNetwork constructs the topology, origin set, vantage and the
// guaranteed-detour backup neighbor.
func buildNetwork(spec Spec, rng *rand.Rand) (*bgpsim.Network, uint32, uint32, error) {
	if spec.Topology == TopoFig1 {
		// AS 3 is Fig. 1's (5,6)-free backup provider.
		return bgpsim.Fig1Network(spec.PrefixesPerOrigin), 1, 3, nil
	}
	g := topology.Generate(topology.GenConfig{
		NumASes:   spec.NumASes,
		AvgDegree: spec.AvgDegree,
		Seed:      spec.Seed,
	})
	tiers := g.Tiers()
	ases := g.ASes()

	// Vantage: a deep, multi-homed edge AS — at least two transit
	// providers, as far from the core as the graph offers (Fig. 1's
	// AS 1 shape: the router whose providers' chains a remote failure
	// can cut while a sibling provider keeps a detour).
	providerASes := func(as uint32) []uint32 {
		var out []uint32
		for _, nb := range g.Neighbors(as) {
			if nb.Rel == topology.RelProvider {
				out = append(out, nb.AS)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	vantage := uint32(0)
	byDepth := append([]uint32(nil), ases...)
	sort.Slice(byDepth, func(i, j int) bool {
		ti, tj := tiers[byDepth[i]], tiers[byDepth[j]]
		if ti != tj {
			return ti > tj // deeper first
		}
		di, dj := g.Degree(byDepth[i]), g.Degree(byDepth[j])
		if di != dj {
			return di > dj
		}
		return byDepth[i] < byDepth[j]
	})
	for _, as := range byDepth {
		if len(providerASes(as)) >= 2 {
			vantage = as
			break
		}
	}
	if vantage == 0 {
		return nil, 0, 0, fmt.Errorf("scenario %q: no viable vantage in generated topology", spec.Name)
	}

	// Narrow the primary chain: under pure Gao–Rexford, a transit
	// neighbor multihomed into a meshed core never fully withdraws — a
	// link failure just shifts its path. Real withdrawal bursts come
	// from narrow provider chains (Fig. 1's 2→5→6). Prune the primary
	// neighbor (the vantage's lowest-AS provider) and its upstream to a
	// single provider each, so the matrix's remote failures have a
	// chain to cut while the vantage's other providers keep a detour.
	isVantageNbr := map[uint32]bool{vantage: true}
	for _, nb := range g.Neighbors(vantage) {
		isVantageNbr[nb.AS] = true
	}
	chain := map[uint32]bool{}
	n0 := providerASes(vantage)[0]
	cur := n0
	for level := 0; level < 2; level++ {
		ups := providerASes(cur)
		if len(ups) == 0 {
			break
		}
		keep := ups[0]
		for _, p := range ups {
			if !isVantageNbr[p] {
				keep = p
				break
			}
		}
		for _, p := range ups {
			if p != keep {
				g = g.WithoutLink(cur, p)
			}
		}
		chain[keep] = true
		cur = keep
	}

	// Origins: edge ASes (highest tiers first) that are not the
	// vantage, its direct neighbors, or the primary chain, sampled
	// deterministically.
	excluded := map[uint32]bool{vantage: true}
	for _, nb := range g.Neighbors(vantage) {
		excluded[nb.AS] = true
	}
	for as := range chain {
		excluded[as] = true
	}
	var cands []uint32
	for _, as := range ases {
		if !excluded[as] {
			cands = append(cands, as)
		}
	}
	// Single-uplink edge ASes first: a stub origin's transit chain can
	// actually be cut (a multihomed origin just path-shifts), and the
	// backup transit added below keeps the cut restorable.
	single := func(as uint32) bool { return len(providerASes(as)) == 1 }
	sort.Slice(cands, func(i, j int) bool {
		si, sj := single(cands[i]), single(cands[j])
		if si != sj {
			return si
		}
		ti, tj := tiers[cands[i]], tiers[cands[j]]
		if ti != tj {
			return ti > tj // deeper tier (edge) first
		}
		return cands[i] < cands[j]
	})
	n := spec.NumOrigins
	if n > len(cands) {
		n = len(cands)
	}
	// Shuffle inside the stub pool only, so the preference order
	// survives the sampling.
	stubs := 0
	for stubs < len(cands) && single(cands[stubs]) {
		stubs++
	}
	rng.Shuffle(stubs, func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	origins := make(map[uint32]int, n)
	originList := make([]uint32, 0, n)
	for _, as := range cands[:n] {
		origins[as] = spec.PrefixesPerOrigin
		originList = append(originList, as)
	}
	sort.Slice(originList, func(i, j int) bool { return originList[i] < originList[j] })

	// Guarantee a detour: every origin additionally buys PARTIAL
	// transit from the vantage's second provider — Fig. 1's exact
	// arrangement (AS 3 reaches AS 6's prefixes but resells that
	// reachability only to AS 1). The export veto below keeps the
	// backup path out of every other AS's routing, so the primary
	// session's paths still run over the real (cuttable) chains, while
	// the vantage always keeps the backup session as a valid detour
	// for every origin.
	n1 := providerASes(vantage)[1]
	for _, o := range originList {
		if !g.HasLink(o, n1) {
			g.AddCustomerProvider(o, n1)
		}
	}
	isOrigin := make(map[uint32]bool, len(origins))
	for o := range origins {
		isOrigin[o] = true
	}
	pol := &bgpsim.Policy{
		Export: func(exporter, importer, origin uint32) bool {
			if exporter == n1 && importer != vantage && isOrigin[origin] {
				return false
			}
			return true
		},
	}
	return &bgpsim.Network{Graph: g, Policy: pol, Origins: origins}, vantage, n1, nil
}

// sessionNeighbors orders the vantage's neighbors for session
// assignment: transit providers first (under Gao–Rexford export they
// are the neighbors that announce full tables — the sessions SWIFT
// monitors), then peers, then customers, ascending AS within each
// class. An explicit Policy.Prefer ranking (Fig. 1's "AS 2 first")
// overrides.
func sessionNeighbors(net *bgpsim.Network, vantage uint32, peers int) []uint32 {
	rank := func(as uint32) int {
		rel, _ := net.Graph.RelOf(vantage, as)
		switch rel {
		case topology.RelProvider:
			return 0
		case topology.RelPeer:
			return 1
		default:
			return 2
		}
	}
	var out []uint32
	for _, nb := range net.Graph.Neighbors(vantage) {
		out = append(out, nb.AS)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := rank(out[i]), rank(out[j])
		if ri != rj {
			return ri < rj
		}
		return out[i] < out[j]
	})
	if pref := net.Policy.Prefer[vantage]; len(pref) > 0 {
		ranked := append([]uint32(nil), pref...)
		seen := make(map[uint32]bool)
		for _, as := range ranked {
			seen[as] = true
		}
		for _, as := range out {
			if !seen[as] {
				ranked = append(ranked, as)
			}
		}
		out = ranked
	}
	return out
}

// pickFailure chooses the failed link (or AS) at the requested AS-hop
// distance along the primary session's paths, validating that the
// failure actually produces a detectable withdrawal burst. It returns
// the failed link set, the dead AS (0 for a link failure) and a
// description.
func pickFailure(spec Spec, rng *rand.Rand, net *bgpsim.Network, sols map[uint32]*bgpsim.OriginSolution, vantage, primary uint32) ([]topology.Link, uint32, string, error) {
	rib := net.SessionRIB(sols, vantage, primary)
	origins := make([]uint32, 0, len(rib))
	for o := range rib {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })

	// Candidate links per hop distance. Hop h >= 1 is the link between
	// the h-th and (h+1)-th AS past the vantage on a primary-session
	// path (h = 1 is adjacent to the session neighbor; the session link
	// itself is never failed — its loss is a session reset, not a
	// remote outage).
	type cand struct {
		link topology.Link
		far  uint32 // endpoint away from the vantage
	}
	byHop := make(map[int][]cand)
	seen := make(map[topology.Link]bool)
	maxHop := 0
	for _, o := range origins {
		path := rib[o]
		for h := 1; h < len(path); h++ {
			l := topology.MakeLink(path[h-1], path[h])
			if seen[l] {
				continue
			}
			seen[l] = true
			byHop[h] = append(byHop[h], cand{link: l, far: path[h]})
			if h > maxHop {
				maxHop = h
			}
		}
	}
	// Preferred hop first, then progressively nearer/farther.
	var hops []int
	for d := 0; d <= maxHop; d++ {
		if h := spec.HopsAway - d; h >= 1 && h <= maxHop {
			hops = append(hops, h)
		}
		if d > 0 {
			if h := spec.HopsAway + d; h >= 1 && h <= maxHop {
				hops = append(hops, h)
			}
		}
	}
	excluded := map[uint32]bool{vantage: true}
	for _, nb := range net.Graph.Neighbors(vantage) {
		excluded[nb.AS] = true
	}
	for _, h := range hops {
		cands := byHop[h]
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		for _, c := range cands {
			if spec.Failure == FailAS {
				if excluded[c.far] || net.Origins[c.far] > 0 {
					continue
				}
				b, err := net.ReplayASFailure(vantage, primary, c.far, bgpsim.DefaultTiming(spec.Seed*1000))
				if err == nil && viableBurst(b, spec) && restorable(net, vantage, b, net.Graph.WithoutAS(c.far)) {
					links := make([]topology.Link, 0, net.Graph.Degree(c.far))
					for _, nb := range net.Graph.Neighbors(c.far) {
						links = append(links, topology.MakeLink(c.far, nb.AS))
					}
					return links, c.far, fmt.Sprintf("as %d (hop %d)", c.far, h), nil
				}
				continue
			}
			b, err := net.ReplayLinkFailure(vantage, primary, c.link, bgpsim.DefaultTiming(spec.Seed*1000))
			if err == nil && viableBurst(b, spec) && restorable(net, vantage, b, net.Graph.WithoutLink(c.link.A, c.link.B)) {
				return []topology.Link{c.link}, 0, fmt.Sprintf("link %s (hop %d)", c.link, h), nil
			}
		}
	}
	return nil, 0, "", fmt.Errorf("scenario %q: no viable failure at ~%d hops on session (%d,%d)",
		spec.Name, spec.HopsAway, vantage, primary)
}

// viableBurst requires enough withdrawals to clear burst detection even
// after a partial-withdraw mutation.
func viableBurst(b *bgpsim.Burst, spec Spec) bool {
	size := float64(b.Size)
	if spec.PartialWithdraw > 0 && spec.PartialWithdraw < 1 {
		size *= spec.PartialWithdraw
	}
	return int(size) >= 2*spec.BurstStart
}

// restorable requires that the failure leaves a usable detour: at
// least half of the withdrawn origins must still have a valid route at
// the vantage on the post-failure graph. A failure that partitions the
// withdrawn origins entirely gives fast reroute nothing to divert to —
// loss is unavoidable for any router, which is not the scenario class
// the matrix measures.
func restorable(net *bgpsim.Network, vantage uint32, b *bgpsim.Burst, after *topology.Graph) bool {
	if len(b.WithdrawnOrigins) == 0 {
		return false
	}
	ok := 0
	for _, o := range b.WithdrawnOrigins {
		if bgpsim.SolveOrigin(after, net.Policy, o).RouteAt(vantage).Valid() {
			ok++
		}
	}
	return 2*ok >= len(b.WithdrawnOrigins)
}

// prefixesOf lists a session RIB's prefixes in deterministic order.
func prefixesOf(net *bgpsim.Network, rib map[uint32][]uint32) []netaddr.Prefix {
	origins := make([]uint32, 0, len(rib))
	for o := range rib {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	var out []netaddr.Prefix
	for _, o := range origins {
		for i := 0; i < net.Origins[o]; i++ {
			out = append(out, netaddr.PrefixFor(o, i))
		}
	}
	return out
}
