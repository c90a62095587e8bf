package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"swift/internal/bmp"
	"swift/internal/controller"
	"swift/internal/event"
	"swift/internal/fusion"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
	"swift/internal/telemetry"
	"swift/internal/topology"
)

// decisionRec and provisionRec are the observer's time-stamped copies of
// what the fleet pushed: wall is nanoseconds since the observer's zero.
type decisionRec struct {
	wall      int64
	at        time.Duration
	links     []topology.Link
	infer     time.Duration
	dataplane time.Duration
	rules     int
	external  bool
}

type provisionRec struct {
	wall      int64
	at        time.Duration
	fallback  bool
	unchanged bool
}

// peerLog is one peer's share of the observer. Its hooks run under the
// peer's lock, so it needs no synchronisation of its own; it is read
// after Fleet.Sync.
type peerLog struct {
	starts, ends int
	decisions    []decisionRec
	provisions   []provisionRec
}

// observer is the harness end of controller.FleetObserver.
type observer struct {
	zero     time.Time
	byKey    map[event.PeerKey]*peerLog
	peers    []*peerLog
	initial  atomic.Int32 // peers whose first provision has fired
	allUp    chan struct{}
	verdicts atomic.Int64
}

func newObserver(w *world) *observer {
	o := &observer{zero: time.Now(), byKey: make(map[event.PeerKey]*peerLog, len(w.peers)), allUp: make(chan struct{})}
	for _, p := range w.peers {
		l := &peerLog{decisions: make([]decisionRec, 0, 256), provisions: make([]provisionRec, 0, 256)}
		o.byKey[p.key] = l
		o.peers = append(o.peers, l)
	}
	return o
}

func (o *observer) now() int64 { return int64(time.Since(o.zero)) }

func (o *observer) hooks() controller.FleetObserver {
	return controller.FleetObserver{
		OnBurstStart: func(peer controller.PeerKey, _ time.Duration, _ int) { o.byKey[peer].starts++ },
		OnBurstEnd:   func(peer controller.PeerKey, _ time.Duration, _ int) { o.byKey[peer].ends++ },
		OnDecision: func(peer controller.PeerKey, d swiftengine.Decision) {
			l := o.byKey[peer]
			l.decisions = append(l.decisions, decisionRec{
				wall: o.now(), at: d.At, links: d.Result.Links, infer: d.InferLatency,
				dataplane: d.DataplaneTime, rules: d.RulesInstalled, external: d.External,
			})
		},
		OnProvision: func(peer controller.PeerKey, info swiftengine.ProvisionInfo) {
			l := o.byKey[peer]
			l.provisions = append(l.provisions, provisionRec{wall: o.now(), at: info.At, fallback: info.Fallback, unchanged: info.Unchanged})
			if !info.Fallback && int(o.initial.Add(1)) == len(o.peers) {
				close(o.allUp)
			}
		},
	}
}

// engineConfig is the paper-default engine for one peer.
func engineConfig(key controller.PeerKey) swiftengine.Config {
	return swiftengine.Config{LocalAS: localAS, PrimaryNeighbor: key.AS}
}

// fleetConfig assembles the fleet under test: paper-default engines,
// workers and queue depth at their defaults, alternates preloaded
// through OnPeer, the observer wired in.
func fleetConfig(sp *spec, w *world, o *observer) controller.FleetConfig {
	index := make(map[event.PeerKey]int, len(w.peers))
	for i, p := range w.peers {
		index[p.key] = i
	}
	cfg := controller.FleetConfig{
		Engine:   engineConfig,
		Observer: o.hooks(),
		OnPeer: func(p *controller.FleetPeer) {
			w.loadAlternates(index[p.Key()], p.LearnAlternate)
		},
	}
	if sp.fused {
		cfg.Fusion = &fusion.Config{OnVerdict: func(topology.Link, int, float64) { o.verdicts.Add(1) }}
	}
	return cfg
}

// loadAlternates feeds peer i's backup routes — one from each of the
// two alternate neighbors per prefix — to learn.
func (w *world) loadAlternates(i int, learn func(neighbor uint32, p netaddr.Prefix, path []uint32)) {
	var path []uint32
	for _, gr := range w.peers[i].groups {
		for o := 0; o < gr.origins; o++ {
			for _, nb := range [2]uint32{altNeighbor1, altNeighbor2} {
				path = w.appendAltPath(path[:0], nb, gr.g, o)
				for j := 0; j < originPrefixes; j++ {
					learn(nb, w.prefix(gr.g, o, j), path)
				}
			}
		}
	}
}

// rig is the pipeline under test assembled from the repository's public
// pieces: a bmp.Station listening on loopback TCP feeding a
// controller.Fleet, directly or through the tracing sink.
type rig struct {
	sp      *spec
	w       *world
	obs     *observer
	fleet   *controller.Fleet
	sink    event.Sink
	tr      *tracer // nil on untraced runs
	reg     *telemetry.Registry
	station *bmp.Station
	ln      net.Listener
	served  chan error
	closed  bool
}

func newRig(sp *spec, w *world, tr *tracer) (*rig, error) {
	r := &rig{sp: sp, w: w, obs: newObserver(w), tr: tr}
	cfg := fleetConfig(sp, w, r.obs)
	if tr != nil {
		r.obs.zero = tr.zero // one time base for the observer's stamps and the spans
		// The traced run reads the program's own instruments too.
		r.reg = telemetry.NewRegistry()
		cfg = controller.NewFleetTelemetry(r.reg, nil).Instrument(cfg)
	}
	r.fleet = controller.NewFleet(cfg)
	r.sink = r.fleet
	if tr != nil {
		controller.RegisterFleetMetrics(r.reg, r.fleet)
		r.sink = &tracingSink{fleet: r.fleet, tr: tr}
	}
	if sp.archive {
		return r, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.fleet.Close()
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	r.ln = ln
	r.station = bmp.NewStation(bmp.StationConfig{Sink: r.sink})
	r.served = make(chan error, 1)
	go func() { r.served <- r.station.Serve(ln) }()
	return r, nil
}

// close stops the station and the fleet and waits for both. Closing
// twice is harmless.
func (r *rig) close() {
	if r.closed {
		return
	}
	r.closed = true
	if r.station != nil {
		r.station.Close()
		<-r.served
	}
	r.fleet.Close()
}

// session runs one BMP session: it dials the station, lets send write
// the session's bytes — which must end with a Termination — waits for
// the station to hang up, which it does once everything it read has
// been handed to the fleet, and then waits for the fleet to drain.
func (r *rig) session(send func(conn net.Conn) error) error {
	conn, err := net.Dial("tcp", r.ln.Addr().String())
	if err != nil {
		return fmt.Errorf("dial station: %w", err)
	}
	defer conn.Close()
	if err := send(conn); err != nil {
		return fmt.Errorf("write to station: %w", err)
	}
	var one [1]byte
	if _, err := conn.Read(one[:]); !errors.Is(err, io.EOF) {
		return fmt.Errorf("station did not close the session cleanly: %v", err)
	}
	r.sync()
	return nil
}

// sync waits for the fleet to drain; a traced run times the wait.
func (r *rig) sync() {
	if r.tr == nil {
		r.fleet.Sync()
		return
	}
	start := r.tr.now()
	r.fleet.Sync()
	r.tr.add("controller.sync", start, r.tr.now(), -1, 0, 1)
}

// awaitProvisioned blocks until every peer's initial provision fired.
func (r *rig) awaitProvisioned() error {
	select {
	case <-r.obs.allUp:
		r.fleet.Sync()
		return nil
	case <-time.After(60 * time.Second):
		return fmt.Errorf("only %d of %d peers provisioned after the table transfer", r.obs.initial.Load(), len(r.w.peers))
	}
}

// sleepSlack is how much earlier than a deadline the open loop asks to
// be woken. When the process is idle the Go runtime rounds timers up to
// the next millisecond, so a plain sleep to the deadline lands anywhere
// in the millisecond after it; asking for half a millisecond less lands
// half of the wake-ups early, and those wait out the rest in a bounded
// spin. The spin must not yield: with both processors busy a yielding
// goroutine is rescheduled before the scheduler polls the network, and
// the station's reads were delayed by up to its 10 ms monitor period.
const sleepSlack = 500 * time.Microsecond

// waitUntil returns once due has passed since zero.
func waitUntil(zero time.Time, due time.Duration) {
	if d := due - time.Since(zero); d > sleepSlack {
		time.Sleep(d - sleepSlack)
	}
	for time.Since(zero) < due {
	}
}

// errTooShort says a cyclic plan was replayed as often as the harness
// allows before its time was up: the plan is too short for how fast the
// program has become, and must be made longer.
var errTooShort = errors.New("the cyclic plan was replayed the maximum number of times before the phase's time was up: lengthen the plan")

// play is the timed generator loop: it writes the stream's chunks in
// order — each when it is due on an open loop, back to back on a closed
// one — and, for a cyclic plan, shifts the timestamps and goes round
// again until `until` has passed; needing more than limit cycles for
// that is errTooShort. stamps receives the offset from zero at which
// each write began (cycle-major) and, when given, must hold limit
// cycles. The loop allocates nothing.
func (s *wire) play(conn io.Writer, zero time.Time, until time.Duration, limit int, stamps []int64) (cycles int, err error) {
	for {
		off := 0
		base := cycles * len(s.chunks)
		for k := range s.chunks {
			c := &s.chunks[k]
			if c.due > 0 {
				waitUntil(zero, c.due)
			}
			if stamps != nil {
				stamps[base+k] = int64(time.Since(zero))
			}
			if _, err := conn.Write(s.body[off:c.end]); err != nil {
				return cycles, err
			}
			off = c.end
		}
		cycles++
		if !s.plan.cyclic || time.Since(zero) >= until {
			return cycles, nil
		}
		if cycles == limit {
			return cycles, errTooShort
		}
		s.shift()
	}
}
