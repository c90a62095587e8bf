// Package controller implements the paper's §7 deployment scheme for
// routers without a native two-stage table: a SWIFT controller learns
// each of the protected router's sessions — over BMP, or as a live eBGP
// session (the ExaBGP role) — runs one SWIFT engine per session in a
// Fleet, and programs an SDN-switch-like data plane (our dataplane.FIB)
// with the tag rules. The protected router only needs BGP and ARP; here
// the "switch" is the simulated FIB each engine owns.
package controller

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"swift/internal/event"
	"swift/internal/fusion"
	"swift/internal/netaddr"
	"swift/internal/rib"
	"swift/internal/ring"
	swiftengine "swift/internal/swift"
)

// PeerKey identifies one monitored peer inside a fleet: the (AS, BGP
// identifier) pair from the BMP per-peer header, which is unique per
// monitored router. It is the shared event vocabulary's peer identity.
type PeerKey = event.PeerKey

// ErrClosed is returned by Apply after the fleet has closed.
var ErrClosed = errors.New("controller: fleet closed")

// FleetObserver is the fleet's push-notification surface: the engine
// Observer hooks with the peer attributed. Hooks run synchronously on
// the peer's delivery goroutine while it holds the peer lock — they
// must be fast and must not call back into the peer or the fleet's
// per-peer accessors.
type FleetObserver struct {
	// OnBurstStart fires when a peer's detector opens a burst.
	OnBurstStart func(peer PeerKey, at time.Duration, withdrawals int)
	// OnDecision fires for every accepted inference on any peer.
	OnDecision func(peer PeerKey, d swiftengine.Decision)
	// OnBurstEnd fires when a peer's burst closes.
	OnBurstEnd func(peer PeerKey, at time.Duration, received int)
	// OnProvision fires after every successful provision pass on any
	// peer, initial and burst-end fallback alike.
	OnProvision func(peer PeerKey, info swiftengine.ProvisionInfo)
}

// LoggingFleetObserver builds the standard reporting FleetObserver:
// the engine LoggingObserver lines with the peer key prefixed.
func LoggingFleetObserver(logf func(format string, args ...any)) FleetObserver {
	perPeer := func(peer PeerKey) swiftengine.Observer {
		return swiftengine.LoggingObserver(func(format string, args ...any) {
			logf("["+peer.String()+"] "+format, args...)
		})
	}
	return FleetObserver{
		OnBurstStart: func(peer PeerKey, at time.Duration, withdrawals int) {
			perPeer(peer).OnBurstStart(at, withdrawals)
		},
		OnDecision: func(peer PeerKey, d swiftengine.Decision) {
			perPeer(peer).OnDecision(d)
		},
		OnBurstEnd: func(peer PeerKey, at time.Duration, received int) {
			perPeer(peer).OnBurstEnd(at, received)
		},
		OnProvision: func(peer PeerKey, info swiftengine.ProvisionInfo) {
			perPeer(peer).OnProvision(info)
		},
	}
}

// FleetConfig parameterizes a Fleet.
type FleetConfig struct {
	// Engine builds the engine configuration for a new peer (nil: the
	// zero Config). A zero PrimaryNeighbor becomes the peer's AS.
	Engine func(key PeerKey) swiftengine.Config
	// Observer receives peer-attributed push notifications for every
	// engine in the pool. It composes with (runs before) any Observer
	// the Engine factory put on the per-peer config.
	Observer FleetObserver
	// OnPeer, when set, runs per newly created peer before it becomes
	// visible to other callers — the place to preload alternate routes
	// or other per-peer state. It runs off the fleet's locks; under a
	// creation race it may run for a candidate that is then discarded,
	// so it must only touch the peer it is given.
	OnPeer func(p *FleetPeer)
	// Fusion, when set, enables fleet-level evidence fusion: the fleet
	// owns a fusion.Aggregator over its shared pool, every engine's
	// inferences are offered as evidence through a per-peer gate, and
	// confirmed verdicts fan back into all engines as external reroutes.
	// Unless Fusion.ManualPump is set, a background goroutine publishes
	// verdicts as evidence arrives; deterministic harnesses set
	// ManualPump and call FusePump at their own barriers.
	Fusion *fusion.Config
	// QueueDepth is the per-shard delivery ring depth (default 64,
	// rounded up to a power of two). A full ring blocks Enqueue —
	// backpressure, never loss.
	QueueDepth int
	// Workers is the number of dataplane worker goroutines, each owning
	// one shard of the peer engines (default GOMAXPROCS). Peers are
	// pinned to shards by a stable key hash, so one peer's batches are
	// always applied by one worker, in order.
	Workers int
	// Logf, when set, receives one line per fleet event.
	Logf func(format string, args ...any)
}

func (c FleetConfig) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 64
	}
	return c.QueueDepth
}

func (c FleetConfig) workerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// fleetStripes is the lock-stripe count of the peer map. Peer lookup is
// on the per-message hot path; striping keeps concurrent router
// connections from serializing on one mutex.
const fleetStripes = 16

type fleetStripe struct {
	mu    sync.RWMutex
	peers map[PeerKey]*FleetPeer
}

// Fleet is a pool of per-peer SWIFT engines — the multi-session
// deployment of §4.1 ("a router runs one engine per session, in
// parallel") behind a single ingestion front end. Peers are created on
// first use and pinned to one of a fixed set of dataplane workers
// (NDN-DPDK's input/forward thread split): each worker owns a shard of
// the engines and drains pre-demuxed per-peer batches from its own
// bounded ring, so concurrent bursts on different peers — including
// their burst-end provisioning passes — overlap across workers while
// one peer's events stay strictly ordered.
//
// A Fleet is an event.Sink: Apply demultiplexes a batch on each event's
// Peer key, so any Source feeds a fleet exactly as it would feed one
// Engine. It is also an event.Provisioner, so table-transfer-carrying
// sources (a BMP station's in-band dump, an MRT RIB snapshot) can load
// and provision peers without knowing the pool exists.
type Fleet struct {
	cfg     FleetConfig
	pool    *rib.Pool
	stripes [fleetStripes]fleetStripe
	workers []*fleetWorker
	wg      sync.WaitGroup
	closed  atomic.Bool

	batches atomic.Uint64
	ops     atomic.Uint64

	// Evidence fusion (nil when FleetConfig.Fusion is unset). fuseKick
	// nudges the background pump after evidence changes; fuseStop ends
	// it on Close.
	fusion   *fusion.Aggregator
	fuseKick chan struct{}
	fuseStop chan struct{}
	fuseWG   sync.WaitGroup

	// Push-fed aggregates, maintained by the per-engine observers so
	// Metrics never has to lock every engine.
	decisions atomic.Int64
	rules     atomic.Int64
	rerouting atomic.Int64
}

// Fleet is a stream sink and a table-transfer target, with a per-peer
// fast path; a bound FleetPeer is itself a sink.
var (
	_ event.Sink        = (*Fleet)(nil)
	_ event.Provisioner = (*Fleet)(nil)
	_ event.PeerSink    = (*Fleet)(nil)
	_ event.Sink        = (*FleetPeer)(nil)
)

// NewFleet builds an empty fleet. All peer engines share one path/link
// intern pool (unless the Engine factory supplies its own): peers
// monitoring the same routing system announce heavily overlapping AS
// paths, and interning stores each unique path once fleet-wide instead
// of once per (peer, prefix).
func NewFleet(cfg FleetConfig) *Fleet {
	f := &Fleet{cfg: cfg, pool: rib.NewPool()}
	for i := range f.stripes {
		f.stripes[i].peers = make(map[PeerKey]*FleetPeer)
	}
	f.workers = make([]*fleetWorker, cfg.workerCount())
	for i := range f.workers {
		w := &fleetWorker{fleet: f, idx: i, ring: ring.New[delivery](cfg.queueDepth())}
		f.workers[i] = w
		f.wg.Add(1)
		go w.run()
	}
	if cfg.Fusion != nil {
		f.fusion = fusion.NewAggregator(*cfg.Fusion, f.pool)
		if !cfg.Fusion.ManualPump {
			f.fuseKick = make(chan struct{}, 1)
			f.fuseStop = make(chan struct{})
			f.fuseWG.Add(1)
			go f.fusePumpLoop()
		}
	}
	return f
}

// Pool returns the fleet-shared path/link intern pool.
func (f *Fleet) Pool() *rib.Pool { return f.pool }

func (f *Fleet) stripe(key PeerKey) *fleetStripe {
	h := key.AS*0x9e3779b9 ^ key.BGPID*0x85ebca6b
	return &f.stripes[h%fleetStripes]
}

// worker returns the dataplane worker the key's peer is pinned to. The
// assignment is a pure function of the key, so a peer torn down and
// re-created lands on the same shard — its new session's batches queue
// behind the old session's drain, never beside it.
func (f *Fleet) worker(key PeerKey) *fleetWorker {
	h := key.AS*0x9e3779b9 ^ key.BGPID*0x85ebca6b
	return f.workers[h%uint32(len(f.workers))]
}

// fleetWorker is one dataplane shard: a goroutine draining deliveries
// for its pinned peers from a bounded ring. Engines only ever run on
// their shard's worker (setup and inspection calls still lock the
// engine directly), so per-peer FIFO comes from ring order alone.
type fleetWorker struct {
	fleet *Fleet
	idx   int
	ring  *ring.Ring[delivery]
	// full counts pushes that found the ring full and had to block —
	// the backpressure signal surfaced on /metrics.
	full atomic.Uint64
}

// run drains the shard ring until the fleet closes it, then finishes
// whatever had already landed — drain-then-exit, never loss.
func (w *fleetWorker) run() {
	defer w.fleet.wg.Done()
	buf := make([]delivery, 0, 32)
	for {
		buf = w.ring.PopBatchWait(buf)
		if len(buf) == 0 {
			return
		}
		for i := range buf {
			w.process(buf[i])
			buf[i] = delivery{} // drop the batch reference
		}
	}
}

func (w *fleetWorker) process(d delivery) {
	if d.stop {
		// Peer teardown sentinel: every batch the peer's session ever
		// enqueued sits before this in the ring (ClosePeer waited out
		// in-flight senders before pushing it), so the engine is idle.
		if d.release {
			d.peer.mu.Lock()
			d.peer.engine.Release()
			d.peer.mu.Unlock()
			if f := w.fleet; f.fusion != nil {
				// The session's evidence stops corroborating anything;
				// links it alone supported drop on the next pump. A
				// successor session for the key enqueues behind this
				// sentinel, so its evidence survives the retraction.
				f.fusion.Retract(d.peer.key)
				f.kickFusePump()
			}
		}
		return
	}
	if d.peer == nil {
		// Fleet-level sync barrier.
		if d.done != nil {
			close(d.done)
		}
		return
	}
	d.peer.apply(d)
}

// Lookup returns the peer for key if it exists.
func (f *Fleet) Lookup(key PeerKey) (*FleetPeer, bool) {
	s := f.stripe(key)
	s.mu.RLock()
	p, ok := s.peers[key]
	s.mu.RUnlock()
	return p, ok
}

// Peer returns the engine peer for key, creating it on first use and
// pinning it to its shard worker. Creation — including the OnPeer
// hook, which may be expensive (e.g. loading an alternates RIB) — runs
// off the stripe lock so it never stalls other peers' hot-path
// lookups; two racing creators both initialize a candidate and the
// insert double-checks, so OnPeer may run for a discarded candidate
// (it must only touch the peer it is given).
func (f *Fleet) Peer(key PeerKey) *FleetPeer {
	s := f.stripe(key)
	s.mu.RLock()
	p, ok := s.peers[key]
	s.mu.RUnlock()
	if ok {
		return p
	}
	cfg := f.engineConfig(key)
	cand := &FleetPeer{
		key:    key,
		fleet:  f,
		worker: f.worker(key),
	}
	cfg.Observer = f.wireObserver(cand, cfg.Observer)
	cand.engine = swiftengine.New(cfg)
	if f.cfg.OnPeer != nil {
		f.cfg.OnPeer(cand)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok = s.peers[key]; ok {
		// Lost the creation race: discard cand, returning whatever pool
		// references OnPeer loaded into its engine (an alternates RIB
		// can be a full table's worth of interned paths).
		cand.engine.Release()
		return p
	}
	if f.closed.Load() {
		// The fleet closed while we were creating: register the peer
		// dead (Enqueue reports false) so its batches are refused
		// rather than landing on a closed ring. The closed store
		// happens before Close takes this stripe's lock, so either we
		// see it here or Close's sweep sees the map entry.
		cand.closing.Store(true)
		s.peers[key] = cand
		return cand
	}
	s.peers[key] = cand
	f.logf("fleet: peer %s created", key)
	return cand
}

// engineConfig is the key's engine configuration: the factory's, with
// the fleet's defaults filled in.
func (f *Fleet) engineConfig(key PeerKey) swiftengine.Config {
	var cfg swiftengine.Config
	if f.cfg.Engine != nil {
		cfg = f.cfg.Engine(key)
	}
	if cfg.PrimaryNeighbor == 0 {
		cfg.PrimaryNeighbor = key.AS
	}
	if cfg.Pool == nil {
		cfg.Pool = f.pool
	}
	if f.fusion != nil && cfg.Fusion == nil {
		cfg.Fusion = f.fusion.Gate(key)
	}
	return cfg
}

// ClosePeer tears one session down: the peer leaves the pool
// immediately (later traffic for the key builds a fresh peer), its
// in-flight batches drain on the shard worker, and the engine's path
// references are released back to the shared pool. It reports whether
// the key named a live peer. Teardown is asynchronous; the release
// happens once the worker reaches the peer's stop sentinel, behind
// everything its session enqueued.
func (f *Fleet) ClosePeer(key PeerKey) bool {
	s := f.stripe(key)
	s.mu.Lock()
	p, ok := s.peers[key]
	if ok {
		delete(s.peers, key)
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	// Evidence retraction rides the stop sentinel: the worker retracts
	// after the session's last batch has applied, so a burst observed
	// mid-drain cannot re-register the peer behind the retraction.
	p.close(true)
	f.logf("fleet: peer %s closed", key)
	return true
}

// wireObserver composes the fleet's aggregate accounting and the
// user's FleetObserver with whatever Observer the engine factory set.
// Every hook runs while the peer lock is held (engines only run under
// it), so the peer-local rerouting flag needs no extra synchronization.
func (f *Fleet) wireObserver(p *FleetPeer, user swiftengine.Observer) swiftengine.Observer {
	return swiftengine.Observer{
		OnBurstStart: func(at time.Duration, withdrawals int) {
			if f.fusion != nil {
				f.fusion.BurstStart(p.key, at)
			}
			if f.cfg.Observer.OnBurstStart != nil {
				f.cfg.Observer.OnBurstStart(p.key, at, withdrawals)
			}
			if user.OnBurstStart != nil {
				user.OnBurstStart(at, withdrawals)
			}
		},
		OnDecision: func(d swiftengine.Decision) {
			f.decisions.Add(1)
			f.rules.Add(int64(d.RulesInstalled))
			if !p.rerouting {
				p.rerouting = true
				f.rerouting.Add(1)
			}
			if f.fusion != nil && !d.External {
				// The evidence itself was recorded synchronously by the
				// engine's gate Propose; only the cross-peer fan-out is
				// deferred to the pump (applying verdicts here would take
				// other peers' locks while holding this one).
				f.kickFusePump()
			}
			if f.cfg.Observer.OnDecision != nil {
				f.cfg.Observer.OnDecision(p.key, d)
			}
			if user.OnDecision != nil {
				user.OnDecision(d)
			}
		},
		OnBurstEnd: func(at time.Duration, received int) {
			if p.rerouting {
				p.rerouting = false
				f.rerouting.Add(-1)
			}
			if f.fusion != nil {
				f.fusion.BurstEnd(p.key, at)
				f.kickFusePump()
			}
			if f.cfg.Observer.OnBurstEnd != nil {
				f.cfg.Observer.OnBurstEnd(p.key, at, received)
			}
			if user.OnBurstEnd != nil {
				user.OnBurstEnd(at, received)
			}
		},
		OnProvision: func(info swiftengine.ProvisionInfo) {
			if f.cfg.Observer.OnProvision != nil {
				f.cfg.Observer.OnProvision(p.key, info)
			}
			if user.OnProvision != nil {
				user.OnProvision(info)
			}
		},
	}
}

// Apply demultiplexes one event batch across the pool — the Sink
// surface that makes a Fleet and an Engine interchangeable behind any
// Source. Events are routed on their Peer key (peers are created on
// first use) and enqueued to the shard rings; each peer's relative
// event order is preserved. A full shard ring blocks — backpressure,
// never loss. Apply reports ErrClosed after Close.
func (f *Fleet) Apply(b event.Batch) error {
	if len(b) == 0 {
		return nil
	}
	// Deliver maximal single-peer runs as subslices of b. Sources flush
	// per-peer batches, so the whole batch is almost always one run;
	// interleaved batches split with zero allocations because a batch
	// is retained until applied anyway — aliasing it is the contract.
	start := 0
	for i := 1; i <= len(b); i++ {
		if i < len(b) && b[i].Peer == b[start].Peer {
			continue
		}
		if err := f.deliver(b[start].Peer, b[start:i:i]); err != nil {
			return err
		}
		start = i
	}
	return nil
}

// deliver routes one single-peer batch, re-resolving the peer when a
// concurrent ClosePeer tore it down mid-flight (the re-resolution
// builds the key's next session).
func (f *Fleet) deliver(key PeerKey, b event.Batch) error {
	for {
		if f.closed.Load() {
			return ErrClosed
		}
		if f.Peer(key).Enqueue(b) {
			return nil
		}
	}
}

// PeerSink binds the keyed peer's delivery queue as a dedicated sink —
// the event.PeerSink fast path that lets per-peer sources (the BMP
// station) skip the per-batch demux and map lookup of Apply.
func (f *Fleet) PeerSink(peer PeerKey) event.Sink { return f.Peer(peer) }

// Apply delivers one batch straight to this peer's queue — the
// event.Sink surface of a bound peer. The batch must carry only this
// peer's events; attribution is not re-checked.
func (p *FleetPeer) Apply(b event.Batch) error {
	if !p.Enqueue(b) {
		return ErrClosed
	}
	return nil
}

// Learn installs one initial-table route on the keyed peer's primary
// RIB — the event.Provisioner surface for table-transfer sources.
func (f *Fleet) Learn(peer PeerKey, p netaddr.Prefix, path []uint32) {
	f.Peer(peer).LearnPrimary(p, path)
}

// Provisioned reports whether the keyed peer's plan is compiled.
func (f *Fleet) Provisioned(peer PeerKey) bool {
	return f.Peer(peer).Provisioned()
}

// Provision compiles the keyed peer's plan from its loaded tables.
func (f *Fleet) Provision(peer PeerKey) error {
	return f.Peer(peer).Provision()
}

// Peers snapshots the pool, sorted by key for stable iteration.
func (f *Fleet) Peers() []*FleetPeer {
	var out []*FleetPeer
	for i := range f.stripes {
		s := &f.stripes[i]
		s.mu.RLock()
		for _, p := range s.peers {
			out = append(out, p)
		}
		s.mu.RUnlock()
	}
	sortPeers(out)
	return out
}

// Len returns the number of peers in the pool.
func (f *Fleet) Len() int {
	n := 0
	for i := range f.stripes {
		s := &f.stripes[i]
		s.mu.RLock()
		n += len(s.peers)
		s.mu.RUnlock()
	}
	return n
}

// FleetMetrics is an aggregate snapshot across the pool.
type FleetMetrics struct {
	Peers          int
	Batches        uint64
	Ops            uint64
	Withdrawals    uint64
	Announcements  uint64
	Decisions      int
	RulesInstalled int
	Rerouting      int // peers with fast-reroute rules installed now
	// UniquePaths and UniqueLinks are the fleet pool's live
	// cardinalities — the denominator of the interning win: total
	// routes across peers divided by UniquePaths is the sharing factor.
	UniquePaths int
	UniqueLinks int
}

// Metrics snapshots the fleet's aggregate counters. The decision and
// rule aggregates are push-fed by the per-engine observers, so the
// snapshot never locks an engine.
func (f *Fleet) Metrics() FleetMetrics {
	ps := f.pool.Stats()
	m := FleetMetrics{
		Batches:        f.batches.Load(),
		Ops:            f.ops.Load(),
		Decisions:      int(f.decisions.Load()),
		RulesInstalled: int(f.rules.Load()),
		Rerouting:      int(f.rerouting.Load()),
		UniquePaths:    ps.Paths,
		UniqueLinks:    ps.Links,
	}
	for _, p := range f.Peers() {
		m.Peers++
		m.Withdrawals += p.withdrawals.Load()
		m.Announcements += p.announcements.Load()
	}
	return m
}

// Sync blocks until every batch enqueued before the call has been
// applied by its shard worker. It costs one barrier per worker, not
// per peer: a done sentinel lands behind everything already in each
// ring, so draining all the sentinels drains all prior batches.
func (f *Fleet) Sync() {
	dones := make([]chan struct{}, 0, len(f.workers))
	for _, w := range f.workers {
		done := make(chan struct{})
		if w.ring.Push(delivery{done: done}) {
			dones = append(dones, done)
		}
	}
	for _, done := range dones {
		<-done
	}
}

// Close stops the shard workers after their rings drain, then waits.
// The engines stay inspectable afterwards (unlike ClosePeer, Close does
// not release them). The sequence is refuse-then-drain: every peer is
// marked closing (new senders refuse), in-flight senders are waited
// out (their batches either landed or were refused), and only then are
// the rings closed — the workers finish whatever landed and exit, so
// nothing accepted is ever dropped. Peers created concurrently with
// Close come out dead (Enqueue reports false) rather than leaked: the
// closed flag is published before the sweep takes each stripe lock, so
// either the creator sees it or the sweep sees the map entry.
func (f *Fleet) Close() {
	if !f.closed.Swap(true) {
		if f.fuseStop != nil {
			close(f.fuseStop)
		}
		var peers []*FleetPeer
		for i := range f.stripes {
			s := &f.stripes[i]
			s.mu.Lock()
			for _, p := range s.peers {
				peers = append(peers, p)
			}
			s.mu.Unlock()
		}
		for _, p := range peers {
			p.closing.Store(true)
		}
		for _, p := range peers {
			for p.senders.Load() != 0 {
				runtime.Gosched()
			}
		}
		for _, w := range f.workers {
			w.ring.Close()
		}
	}
	f.wg.Wait()
	f.fuseWG.Wait()
}

// Status renders a one-line fleet summary.
func (f *Fleet) Status() string {
	m := f.Metrics()
	return fmt.Sprintf("peers=%d ops=%d (wd=%d ann=%d) decisions=%d rules=%d rerouting=%d paths=%d links=%d",
		m.Peers, m.Ops, m.Withdrawals, m.Announcements, m.Decisions, m.RulesInstalled, m.Rerouting,
		m.UniquePaths, m.UniqueLinks)
}

func (f *Fleet) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// delivery is one hand-off to a shard worker: an event batch for one
// peer, a synchronization point (nil batch, done channel; peer nil for
// a fleet-wide barrier), or a peer's teardown sentinel.
type delivery struct {
	peer    *FleetPeer
	batch   event.Batch
	done    chan<- struct{} // closed after the batch is applied (Sync)
	stop    bool            // peer teardown sentinel
	release bool            // with stop: release the engine's pool refs
}

// FleetPeer is one peer's engine pinned to a shard worker. Streaming
// events arrive as event.Batches applied on the worker; setup calls
// (Learn*, Provision) and inspection lock the engine directly.
//
// The delivery path is lock-free: Enqueue is an atomic in-flight count,
// one closing-flag load and a ring push — no per-session mutex on the
// demux path, so concurrent sources feeding different peers (or even
// one peer) never serialize on anything but the shard ring itself.
// Teardown refuses new senders, waits out the in-flight ones (their
// batches either landed in the ring or were refused), and then lets
// the worker drain past everything that landed.
type FleetPeer struct {
	key    PeerKey
	fleet  *Fleet
	worker *fleetWorker

	mu     sync.Mutex // guards engine (and rerouting, via the observer)
	engine *swiftengine.Engine
	// rerouting mirrors the engine's reroute state for the fleet's
	// aggregate gauge. It is only touched by the wired observer, which
	// runs under mu.
	rerouting bool

	closing atomic.Bool  // set by close(); new senders refuse
	senders atomic.Int64 // in-flight Enqueue/Sync calls

	withdrawals   atomic.Uint64
	announcements atomic.Uint64
	lastAt        atomic.Int64 // time.Duration of the newest applied event
}

// Key returns the peer's identity.
func (p *FleetPeer) Key() PeerKey { return p.key }

func (p *FleetPeer) apply(d delivery) {
	if len(d.batch) > 0 {
		var wd, ann uint64
		last := time.Duration(-1)
		for i := range d.batch {
			switch d.batch[i].Kind {
			case event.KindWithdraw:
				wd++
			case event.KindAnnounce:
				ann++
			default:
				continue
			}
			last = d.batch[i].At
		}
		p.mu.Lock()
		err := p.engine.Apply(d.batch)
		p.mu.Unlock()
		if err != nil {
			p.fleet.logf("fleet: peer %s: %v", p.key, err)
		}
		p.withdrawals.Add(wd)
		p.announcements.Add(ann)
		p.fleet.ops.Add(wd + ann)
		if last >= 0 {
			p.lastAt.Store(int64(last))
		}
	}
	if d.done != nil {
		close(d.done)
	}
}

// Enqueue hands a batch to the peer's shard worker, blocking when the
// shard ring is full (backpressure propagates to the router's TCP
// connection). It reports false after the peer (or its fleet) has
// closed; a false return means the batch was NOT delivered. The batch
// is retained until applied; callers must not reuse its backing array.
// The ops counter (withdraw/announce events, ticks excluded) advances
// as the worker applies the batch.
func (p *FleetPeer) Enqueue(b event.Batch) bool {
	p.senders.Add(1)
	defer p.senders.Add(-1)
	if p.closing.Load() {
		return false
	}
	w := p.worker
	if !w.ring.TryPush(delivery{peer: p, batch: b}) {
		w.full.Add(1)
		if !w.ring.Push(delivery{peer: p, batch: b}) {
			return false // ring closed: fleet shut down mid-push
		}
	}
	p.fleet.batches.Add(1)
	return true
}

// Sync blocks until everything enqueued to this peer before it has
// been applied. It returns immediately on a closed peer.
func (p *FleetPeer) Sync() {
	p.senders.Add(1)
	if p.closing.Load() {
		p.senders.Add(-1)
		return
	}
	done := make(chan struct{})
	if !p.worker.ring.Push(delivery{peer: p, done: done}) {
		p.senders.Add(-1)
		return
	}
	p.senders.Add(-1)
	<-done
}

// close begins teardown: refuse new senders, wait out the in-flight
// ones so every batch the session delivered is already in the ring,
// then push the stop sentinel behind them — the worker reaches it only
// after the session's last batch is applied. The push fails only when
// the fleet itself closed first; then the worker drains and exits with
// the engine left allocated, exactly Close's semantics. Idempotent.
func (p *FleetPeer) close(release bool) {
	if p.closing.Swap(true) {
		return
	}
	for p.senders.Load() != 0 {
		runtime.Gosched()
	}
	p.worker.ring.Push(delivery{peer: p, stop: true, release: release})
}

// LearnPrimary installs a table-transfer route on the peer's primary
// RIB.
func (p *FleetPeer) LearnPrimary(pfx netaddr.Prefix, path []uint32) {
	p.mu.Lock()
	p.engine.LearnPrimary(pfx, path)
	p.mu.Unlock()
}

// LearnAlternate installs a backup route offered by another neighbor.
func (p *FleetPeer) LearnAlternate(neighbor uint32, pfx netaddr.Prefix, path []uint32) {
	p.mu.Lock()
	p.engine.LearnAlternate(neighbor, pfx, path)
	p.mu.Unlock()
}

// Provisioned reports whether the engine has a compiled encoding (i.e.
// Provision has succeeded at least once).
func (p *FleetPeer) Provisioned() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.engine.Scheme() != nil
}

// Provision compiles the plan and tag encoding from the loaded tables.
func (p *FleetPeer) Provision() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.engine.Provision()
}

// RerouteActive reports whether fast-reroute rules are installed.
func (p *FleetPeer) RerouteActive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.engine.RerouteActive()
}

// LastAt returns the stream offset of the newest applied observation.
func (p *FleetPeer) LastAt() time.Duration { return time.Duration(p.lastAt.Load()) }

// Do runs fn with the engine locked — the escape hatch for inspection
// and tests. fn must not retain the engine.
func (p *FleetPeer) Do(fn func(*swiftengine.Engine)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fn(p.engine)
}
