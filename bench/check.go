package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"swift/internal/controller"
	"swift/internal/event"
	"swift/internal/rib"
	"swift/internal/snapshot"
	swiftengine "swift/internal/swift"
)

// report is the outcome of one run of one workload.
type report struct {
	workload string
	seed     int64
	seconds  float64
	sum      string // SHA-256 of the generated inputs
	e2e      map[string]float64
	layer    map[string]float64
	samples  map[string]int // how many samples stand behind the medians and percentiles
	// attempted and failed count operations: events, bursts, sweeps and
	// checks. failed/attempted is the run's failed_ops_share.
	attempted int64
	failed    int64
	failures  []string       // the first few, for the log
	notes     map[string]int // findings that are not failures, and how often each was seen
}

func newReport(sp *spec, seed int64, seconds float64) *report {
	return &report{workload: sp.name, seed: seed, seconds: seconds,
		e2e: make(map[string]float64), layer: make(map[string]float64), samples: make(map[string]int), notes: make(map[string]int)}
}

// fail books n failed operations.
func (rep *report) fail(n int, format string, args ...any) {
	rep.failed += int64(n)
	if len(rep.failures) < 12 {
		rep.failures = append(rep.failures, fmt.Sprintf(format, args...))
	}
}

// verify books one check as attempted and, unless ok, as failed.
func (rep *report) verify(ok bool, format string, args ...any) {
	rep.attempted++
	if !ok {
		rep.fail(1, format, args...)
	}
}

// expected is the naive reference model's answer for one peer: the
// route state the generator's own bookkeeping — a plain array per peer,
// replayed message by message as the plan was built — ends in, and how
// many events the plan carried.
func (in *inputs) expected(runs []*phaseRun) (withdrawn, announced []uint64) {
	withdrawn = make([]uint64, len(in.w.peers))
	announced = make([]uint64, len(in.w.peers))
	for k, ph := range in.phases {
		for i := range ph.plan.msgs {
			m := &ph.plan.msgs[i]
			n := uint64(m.n) * uint64(runs[k].cycles)
			if m.state == 0 {
				withdrawn[m.peer] += n
			} else {
				announced[m.peer] += n
			}
		}
	}
	return withdrawn, announced
}

// modelTable builds the RIB the naive model says peer i must end with.
func (in *inputs) modelTable(i int) *rib.Table {
	t := rib.New(localAS)
	p := &in.w.peers[i]
	var path []uint32
	for local, st := range in.gen.state[i] {
		if st == 0 {
			continue
		}
		slot, o, j := p.locate(local)
		path = in.w.appendPath(path[:0], i, p.groups[slot].g, o, st)
		t.Announce(in.w.prefix(p.groups[slot].g, o, j), path)
	}
	return t
}

// checkStreams is the correctness gate over the stream phases: every
// generated event was applied by the peer it was meant for, nothing
// failed to decode, every peer's RIB ends where the naive model's does,
// and — for the workload that asks for it — every FIB equals that of a
// single engine fed the same events directly (thorough laps only: the
// replay costs as much as the stream).
func (r *rig) checkStreams(in *inputs, runs []*phaseRun, rep *report, thorough bool) {
	wantW, wantA := in.expected(runs)
	for i, p := range r.fleet.Peers() {
		// Fleet.Peers sorts by key, which is the world's peer order.
		st := p.Status()
		rep.attempted += int64(wantW[i] + wantA[i])
		if st.Withdrawals != wantW[i] || st.Announcements != wantA[i] {
			rep.fail(absDiff(st.Withdrawals, wantW[i])+absDiff(st.Announcements, wantA[i]),
				"peer %d applied %d withdrawals and %d announcements, %d and %d generated", i, st.Withdrawals, st.Announcements, wantW[i], wantA[i])
		}
		want := in.modelTable(i)
		var n int
		var sig uint64
		p.Do(func(e *swiftengine.Engine) { n, sig = e.RIB().Len(), e.RIB().Signature() })
		rep.verify(n == want.Len() && sig == want.Signature(),
			"peer %d RIB has %d routes, signature %#x; the naive replay has %d, %#x", i, n, sig, want.Len(), want.Signature())
	}
	if r.station != nil {
		m := r.station.Metrics()
		if m.DecodeErrors != 0 {
			rep.fail(int(m.DecodeErrors), "station reported %d decode errors", m.DecodeErrors)
		}
	}
	if r.sp.fused {
		agg := r.fleet.Fusion().Stats()
		external := 0
		for _, l := range r.obs.peers {
			for _, d := range l.decisions {
				if d.external {
					external++
				}
			}
		}
		rep.verify(r.obs.verdicts.Load() > 0, "fusion confirmed no verdict")
		rep.verify(external > 0, "fusion pre-triggered no peer")
		rep.verify(agg.Vetoes > 0, "fusion vetoed no inference")
	}
	if r.sp.replay && thorough {
		for i, p := range r.fleet.Peers() {
			e := in.w.bareEngine(i)
			check(e.Provision())
			for _, ph := range in.phases {
				for k := range ph.plan.msgs {
					if m := &ph.plan.msgs[k]; int(m.peer) == i {
						check(e.Apply(in.w.events(nil, m)))
					}
				}
			}
			var got string
			p.Do(func(fe *swiftengine.Engine) { got = fe.FIB().Dump() })
			rep.verify(got == e.FIB().Dump(), "peer %d: the fleet's FIB differs from a direct single-engine replay of the same events", i)
		}
	}
}

func absDiff(a, b uint64) int {
	if a > b {
		return int(a - b)
	}
	return int(b - a)
}

// bareEngine builds peer i's engine outside any fleet — private pool,
// its table and alternates loaded — and leaves provisioning to the
// caller.
func (w *world) bareEngine(i int) *swiftengine.Engine {
	e := swiftengine.New(engineConfig(w.peers[i].key))
	w.routes(i, e.LearnPrimary)
	w.loadAlternates(i, e.LearnAlternate)
	return e
}

// events appends msg m as the events a transport would lower it to.
func (w *world) events(dst event.Batch, m *msg) event.Batch {
	prefixes, path := w.appendPrefixes(nil, nil, m)
	key, at := w.peers[m.peer].key, usDur(m.at)
	for _, pfx := range prefixes {
		if m.state == 0 {
			dst = append(dst, event.Withdraw(at, pfx).WithPeer(key))
		} else {
			dst = append(dst, event.Announce(at, pfx, path).WithPeer(key))
		}
	}
	return dst
}

// roundsRun is what the checkpoint/restore rounds of one lap measured.
type roundsRun struct {
	checkpoint []float64 // seconds: snapshot written and fsynced
	warm       []float64 // seconds: file opened, fleet restored, first sweep verified on all peers
	sweeps     []float64 // Mpkt/s of every forwarding sweep over the restored fleets
}

// restoreConfig is the fleet configuration a warm restart uses: the
// same engines, no observer (the harness does not watch restored fleets)
// and no OnPeer (alternates come out of the snapshot).
func restoreConfig() controller.FleetConfig {
	return controller.FleetConfig{Engine: engineConfig}
}

// rounds runs roundsPerLap checkpoint/restore rounds against the live
// fleet. Each snapshots to path and fsyncs, then opens the file,
// restores a fleet from it and runs a first sweepPackets-packet
// ForwardBatch on every peer — so the lazy stage-1 build is inside
// warm_ready_s — verifying every answer against the live fleet's scalar
// Forward, and then keeps forwarding over the restored fleet for its
// share of forward. On a thorough lap the first round also checks, off
// the clock, that restored FIB dumps are byte-identical to the live ones
// and that snapshot -> restore -> snapshot reproduces the file.
func (r *rig) rounds(in *inputs, forward time.Duration, path string, seed int64, thorough bool, rep *report) (*roundsRun, error) {
	rr := &roundsRun{}
	live := r.fleet.Peers()
	addrs := make([][]uint32, len(live))
	wantNH, wantOK := make([][]uint32, len(live)), make([][]bool, len(live))
	for i, p := range live {
		addrs[i] = in.w.sample(i, sweepPackets, seed)
		wantNH[i], wantOK[i] = make([]uint32, sweepPackets), make([]bool, sweepPackets)
		p.Do(func(e *swiftengine.Engine) {
			for k, a := range addrs[i] {
				wantNH[i][k], wantOK[i][k] = e.FIB().Forward(a)
			}
		})
	}
	nh, ok := make([]uint32, sweepPackets), make([]bool, sweepPackets)
	span := func(name string, t0 time.Time, n int64) {
		if r.tr != nil {
			r.tr.add(name, int64(t0.Sub(r.tr.zero)), r.tr.now(), -1, 0, n)
		}
	}
	round := func(round int) error {
		runtime.GC()
		t0 := time.Now()
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		err = r.fleet.Snapshot(bw)
		if err == nil {
			err = bw.Flush()
		}
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		rr.checkpoint = append(rr.checkpoint, time.Since(t0).Seconds())
		span("round.checkpoint", t0, 1)

		t1 := time.Now()
		f, err = os.Open(path)
		if err != nil {
			return err
		}
		restored, err := controller.RestoreFleet(bufio.NewReaderSize(f, 1<<20), restoreConfig())
		f.Close()
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		defer restored.Close() // off the clock, before the next round starts
		peers := restored.Peers()
		if len(peers) != len(live) {
			return fmt.Errorf("restore brought back %d of %d peers", len(peers), len(live))
		}
		for i, p := range peers {
			bad := 0
			p.Do(func(e *swiftengine.Engine) {
				e.FIB().ForwardBatch(addrs[i], nh, ok)
				for k := range nh {
					if nh[k] != wantNH[i][k] || ok[k] != wantOK[i][k] {
						bad++
					}
				}
			})
			rep.verify(bad == 0, "round %d peer %d: %d of %d restored ForwardBatch answers differ from the live fleet's Forward", round, i, bad, sweepPackets)
		}
		rr.warm = append(rr.warm, time.Since(t1).Seconds())
		span("round.warm", t1, 1)

		if round == 0 && thorough {
			for i, p := range peers {
				var a, b string
				live[i].Do(func(e *swiftengine.Engine) { a = e.FIB().Dump() })
				p.Do(func(e *swiftengine.Engine) { b = e.FIB().Dump() })
				rep.verify(a == b, "peer %d: restored FIB dump differs from the live fleet's", i)
			}
			first, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			var again bytes.Buffer
			if err := restored.Snapshot(&again); err != nil {
				return fmt.Errorf("snapshot of the restored fleet: %w", err)
			}
			want, pruned, err := withoutUnreferencedPaths(first)
			if err != nil {
				return err
			}
			rep.notes["pool paths in a checkpoint that no table references (a tracker's burst state pinned them) and restore prunes by design"] += pruned
			rep.verify(bytes.Equal(want, again.Bytes()), "snapshot -> restore -> snapshot is not byte-identical (%d vs %d bytes, the %d paths restore prunes left out)", len(want), again.Len(), pruned)
		}

		// Forwarding over the fleet this round restored, one sweep of every
		// peer at a time.
		until := time.Now().Add(forward / roundsPerLap)
		for time.Now().Before(until) {
			t2 := time.Now()
			for i, p := range peers {
				p.Do(func(e *swiftengine.Engine) { e.FIB().ForwardBatch(addrs[i], nh, ok) })
			}
			pkts := int64(len(peers)) * sweepPackets
			rr.sweeps = append(rr.sweeps, float64(pkts)/time.Since(t2).Seconds()/1e6)
			span("round.sweep", t2, pkts)
			rep.attempted += int64(len(peers))
		}
		return nil
	}
	for k := 0; k < roundsPerLap; k++ {
		if err := round(k); err != nil {
			return nil, err
		}
	}
	return rr, nil
}

// withoutUnreferencedPaths re-serialises a fleet snapshot with the pool
// paths no table references taken out, and returns how many those were.
// A live fleet's pool still holds the paths of routes that were
// withdrawn while a burst is open: the inference tracker pins them, the
// tracker is deliberately not checkpointed, and RestoreFleet prunes what
// no restored table claims. Path ids are kept, so everything else in a
// snapshot of the restored fleet must equal the original byte for byte —
// and when nothing was pinned, the whole file must.
func withoutUnreferencedPaths(snap []byte) ([]byte, int, error) {
	img, err := snapshot.Read(bytes.NewReader(snap))
	if err != nil {
		return nil, 0, fmt.Errorf("reading the checkpoint back: %w", err)
	}
	used := make(map[rib.PathID]bool, len(img.Pool.Paths))
	for i := range img.Peers {
		st := &img.Peers[i].State
		for _, rt := range st.Table.Routes {
			used[rt.Path] = true
		}
		for _, alt := range st.Alts {
			for _, rt := range alt.Table.Routes {
				used[rt.Path] = true
			}
		}
	}
	kept := img.Pool.Paths[:0]
	for _, pi := range img.Pool.Paths {
		if used[pi.ID] {
			kept = append(kept, pi)
		}
	}
	pruned := len(img.Pool.Paths) - len(kept)
	img.Pool.Paths = kept
	var out bytes.Buffer
	if err := snapshot.Write(&out, img); err != nil {
		return nil, 0, err
	}
	return out.Bytes(), pruned, nil
}
