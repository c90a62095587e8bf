package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"swift/internal/mrt"
	swiftengine "swift/internal/swift"
)

// defaultLaps is how many laps a full-size run makes. A lap is one
// whole life of the pipeline — generate, set up, stream, checkpoint and
// restore, forward — on inputs of its own and a fleet of its own, so
// each lap lands on fresh memory. Every figure is a median over the
// laps (or over all their rounds or bursts): on a small shared box one
// lap's luck with caches, page placement or a noisy neighbour moves a
// number by a fifth, and the median of several is what repeats.
const defaultLaps = 4

// runSeconds is the length of the measured sections of a full-size run:
// BENCHMARK.json's run_seconds and the -seconds default.
const runSeconds = 20

// setupsPerLap is how many times each lap of a full-size run sets the
// pipeline up from nothing: setup_s and cold_ingest_s are medians over
// every set-up of every lap, and the last set-up of a lap is the fleet
// it measures.
const setupsPerLap = 3

// sweepPackets is the size of the forwarding sample per peer.
const sweepPackets = 1 << 16

// runOpts sizes one run. The command always uses the full size; the
// smoke test shrinks everything.
type runOpts struct {
	seconds float64 // length of the measured sections of one lap
	laps    int
	setups  int // set-ups per lap
	// dir is where the run keeps its snapshot files. The command uses
	// .bench_build under the working directory: the benchmark may not
	// write outside its checkout.
	dir string
}

func fullSize(seconds float64) runOpts {
	return runOpts{seconds: seconds / defaultLaps, laps: defaultLaps, setups: setupsPerLap, dir: ".bench_build"}
}

// lapSeed derives the seed of one lap's inputs from the run's.
func lapSeed(seed int64, lap int) int64 { return seed*1000003 + int64(lap) }

// inputs is everything a run generates from its seed.
type inputs struct {
	w        *world
	gen      *generator // its route state after build is the expected end state
	table    []byte     // BMP table-transfer session (BMP workloads)
	phases   []phase
	wires    []*wire   // BMP encoding of each phase
	archives []archive // MRT encoding (archive workloads)
	sum      string    // SHA-256 of every byte the program will be fed
}

// generate builds a workload's inputs. The same (spec, seed, seconds)
// always yields the same bytes.
func generate(sp *spec, seed int64, seconds float64) *inputs {
	in := &inputs{w: newWorld(seed, sp.shapes())}
	grain := usec
	if sp.archive {
		grain = sec
	}
	in.gen = newGenerator(in.w, seed, grain)
	in.phases = sp.build(in.gen, seconds)
	if sp.archive {
		var sum [32]byte
		in.archives, sum = in.w.encodeArchives(in.phases[0].plan)
		in.sum = hex.EncodeToString(sum[:])
		return in
	}
	in.table = in.w.encodeTable()
	all := make([]byte, 0, 32*(len(in.phases)+1))
	for _, ph := range in.phases {
		s := in.w.encode(ph.plan, ph.rate, tick)
		in.wires = append(in.wires, s)
		all = append(all, s.sum[:]...)
	}
	in.sum = hex.EncodeToString(all)
	return in
}

// phaseRun is what one stream phase measured.
type phaseRun struct {
	zero    time.Duration // phase start as an offset from the observer's zero
	elapsed time.Duration // first byte written to Fleet.Sync return
	cycles  int
	events  int64
	mallocs uint64
	gcs     uint32
	gcPause time.Duration
	stamps  []int64   // write start of each chunk, cycle-major, ns since phase start
	reads   [][]int64 // archive phases: per peer, (offset, ns since phase start) pairs of each Read
}

// lapSamples collects, across the laps of a run, the samples each
// untraced figure is the median (or percentile) of.
type lapSamples struct {
	setup, cold       []float64 // one per set-up
	ingest, allocs    []float64 // one per lap
	checkpoint, warm  []float64 // one per round
	sweeps            []float64 // Mpkt/s of every forwarding sweep
	trigger, fallback []float64 // one per burst, ms
}

// run executes one workload: opts.laps laps, reduced to medians. With tr
// set the last lap is traced: its fleet sits behind the tracing sink,
// the program's own telemetry is read, and the isolated per-layer
// replays follow its timed sections.
func run(sp *spec, seed int64, opts runOpts, tr *tracer) (*report, error) {
	rep := newReport(sp, seed, opts.seconds*float64(opts.laps))
	resetPeakRSS()
	if tr != nil && opts.setups < 2 {
		return nil, errors.New("a traced run needs two set-ups per lap: the spare fleet takes the direct replay")
	}
	var ls lapSamples
	sums := sha256.New()
	for lap := 0; lap < opts.laps; lap++ {
		var ltr *tracer
		if lap == opts.laps-1 {
			ltr = tr
		}
		sum, err := runLap(sp, lapSeed(seed, lap), opts, lap == 0, ltr, rep, &ls)
		if err != nil {
			return nil, fmt.Errorf("lap %d: %w", lap, err)
		}
		io.WriteString(sums, sum)
	}
	rep.sum = hex.EncodeToString(sums.Sum(nil))
	rep.e2e["setup_s"] = median(ls.setup)
	rep.e2e["allocs_per_kevent"] = median(ls.allocs)
	rep.e2e["peak_rss_mb"] = peakRSS()
	rep.e2e["pipeline.cold_ingest_s"] = median(ls.cold)
	rep.e2e["pipeline.ingest_events_per_s"] = median(ls.ingest)
	// A workload reports the figures of the phases it has: burst latencies
	// where bursts are scripted, restart figures where it restarts.
	if len(ls.trigger) > 0 {
		rep.e2e["pipeline.trigger_to_rule_p50_ms"] = quantile(ls.trigger, 0.50)
		rep.e2e["pipeline.trigger_to_rule_p95_ms"] = quantile(ls.trigger, 0.95)
		rep.e2e["pipeline.fallback_p50_ms"] = quantile(ls.fallback, 0.50)
	}
	if sp.restart {
		rep.e2e["pipeline.checkpoint_s"] = median(ls.checkpoint)
		rep.e2e["pipeline.warm_ready_s"] = median(ls.warm)
		// The fastest sweep, not the median one: see README.md, "forward_mpps".
		rep.e2e["pipeline.forward_mpps"] = slices.Max(ls.sweeps)
	}
	rep.samples["laps"] = opts.laps
	rep.samples["setups"] = len(ls.setup)
	rep.samples["rounds"] = len(ls.checkpoint)
	rep.samples["sweeps"] = len(ls.sweeps)
	rep.samples["trigger_to_rule"] = len(ls.trigger)
	rep.samples["fallback"] = len(ls.fallback)
	if tr != nil {
		rep.layer = layerMetrics(tr.spans, tr.counts)
	}
	return rep, nil
}

// runLap runs one lap and adds what it measured to ls and what it
// checked to rep. thorough adds the checks too expensive to repeat every
// lap. It returns the SHA-256 of the lap's generated inputs.
func runLap(sp *spec, seed int64, opts runOpts, thorough bool, tr *tracer, rep *report, ls *lapSamples) (string, error) {
	seconds := opts.seconds
	// Set the pipeline up from nothing opts.setups times; the last one
	// is measured, and a traced lap keeps the one before for the direct
	// replay.
	var in *inputs
	var r, spare *rig
	for i := 0; i < opts.setups; i++ {
		if r != nil {
			if tr != nil && i == opts.setups-1 {
				spare = r
			} else {
				r.close()
			}
		}
		// Start every set-up from a collected heap: what came before must
		// not decide when this one's collections fall.
		runtime.GC()
		t0 := time.Now()
		in = generate(sp, seed, seconds)
		var rtr *tracer
		if i == opts.setups-1 {
			rtr = tr
		}
		var err error
		if r, err = newRig(sp, in.w, rtr); err != nil {
			return "", err
		}
		defer r.close()
		t1 := time.Now()
		if err := r.loadTables(in); err != nil {
			return "", err
		}
		ls.cold = append(ls.cold, time.Since(t1).Seconds())
		ls.setup = append(ls.setup, time.Since(t0).Seconds())
		if rtr != nil {
			rtr.add("setup.cold", int64(t1.Sub(rtr.zero)), rtr.now(), -1, int64(i), 1)
		}
	}
	// Stream phases.
	var ingest *phaseRun
	runs := make([]*phaseRun, len(in.phases))
	for k := range in.phases {
		ph := &in.phases[k]
		marks := r.marks()
		pr, err := r.stream(in, k, seconds)
		if err != nil {
			return "", fmt.Errorf("%s/%s: %w", sp.name, ph.name, err)
		}
		runs[k] = pr
		if ph.ingest {
			ingest = pr
		}
		tg, fb := r.matchBursts(in, k, pr, marks, rep)
		ls.trigger, ls.fallback = append(ls.trigger, tg...), append(ls.fallback, fb...)
		if tr != nil {
			tr.add("phase."+ph.name, int64(pr.zero), int64(pr.zero+pr.elapsed), -1, int64(k), pr.events)
		}
	}
	ls.ingest = append(ls.ingest, float64(ingest.events)/ingest.elapsed.Seconds())
	ls.allocs = append(ls.allocs, float64(ingest.mallocs)/(float64(ingest.events)/1000))
	r.checkStreams(in, runs, rep, thorough)

	// Checkpoint / restore rounds, each followed by forwarding over the
	// fleet it restored.
	if sp.restart {
		if err := os.MkdirAll(opts.dir, 0o755); err != nil {
			return "", err
		}
		dir, err := os.MkdirTemp(opts.dir, "swift-bench-")
		if err != nil {
			return "", err
		}
		defer os.RemoveAll(dir)
		forward := time.Duration(forwardShare * seconds * float64(time.Second))
		rr, err := r.rounds(in, forward, filepath.Join(dir, "fleet.snap"), seed, thorough, rep)
		if err != nil {
			return "", err
		}
		ls.checkpoint, ls.warm, ls.sweeps = append(ls.checkpoint, rr.checkpoint...), append(ls.warm, rr.warm...), append(ls.sweeps, rr.sweeps...)
	}

	if tr != nil {
		if err := r.layers(in, runs, ingest, spare, tr); err != nil {
			return "", err
		}
	}
	return in.sum, nil
}

// loadTables transfers every peer's initial table and waits until each
// is provisioned: an in-band BMP dump closed by End-of-RIB, or, for the
// archive workload, TABLE_DUMP_V2 snapshots through mrt.Source.
func (r *rig) loadTables(in *inputs) error {
	if !r.sp.archive {
		err := r.session(func(conn net.Conn) error {
			_, err := conn.Write(in.table)
			return err
		})
		if err != nil {
			return err
		}
		return r.awaitProvisioned()
	}
	errs := make(chan error, len(in.archives))
	for i := range in.archives {
		go func() {
			src := &mrt.Source{RIB: bytes.NewReader(in.archives[i].rib), Updates: bytes.NewReader(nil), Peer: in.w.peers[i].key}
			errs <- src.Run(r.sink)
		}()
	}
	for range in.archives {
		if err := <-errs; err != nil {
			return fmt.Errorf("cold start from TABLE_DUMP_V2: %w", err)
		}
	}
	return r.awaitProvisioned()
}

// maxCycles bounds how often a closed loop replays a cyclic plan: the
// generator moves the clocks this many spans on before the next phase,
// so timestamps never run backwards across phases, and every cycle's
// chunks have a slot for their write time. The reference box replays
// steady-churn's plan up to about 200 times per lap; a program so much
// faster that it would need more than maxCycles fails the run
// (errTooShort) rather than going unmeasured.
const maxCycles = 1024

// stream sends phase k and measures it from the first byte written to
// the return of Fleet.Sync.
func (r *rig) stream(in *inputs, k int, seconds float64) (*phaseRun, error) {
	ph := &in.phases[k]
	pr := &phaseRun{cycles: 1}
	var before, after runtime.MemStats
	var zero time.Time
	if r.sp.archive {
		readers := make([]*stampReader, len(in.archives))
		for i, a := range in.archives {
			readers[i] = newStampReader(a.updates)
			pr.events += int64(a.events)
		}
		errs := make(chan error, len(readers))
		runtime.GC()
		runtime.ReadMemStats(&before)
		zero = time.Now()
		for i, rd := range readers {
			rd.zero = zero
			go func() {
				src := &mrt.Source{Updates: rd, Peer: in.w.peers[i].key, Epoch: epoch}
				errs <- src.Run(r.sink)
			}()
		}
		for range readers {
			if err := <-errs; err != nil {
				return nil, fmt.Errorf("replay BGP4MP archive: %w", err)
			}
		}
		r.sync()
		pr.elapsed = time.Since(zero)
		for _, rd := range readers {
			pr.reads = append(pr.reads, rd.marks)
		}
	} else {
		s := in.wires[k]
		cycles := 1
		if ph.plan.cyclic {
			cycles = maxCycles
		}
		pr.stamps = make([]int64, len(s.chunks)*cycles)
		until := time.Duration(ph.share * seconds * float64(time.Second))
		runtime.GC()
		runtime.ReadMemStats(&before)
		zero = time.Now()
		err := r.session(func(conn net.Conn) error {
			if _, err := conn.Write(s.head); err != nil {
				return err
			}
			var err error
			if pr.cycles, err = s.play(conn, zero, until, cycles, pr.stamps); err != nil {
				return err
			}
			_, err = conn.Write(s.tail)
			return err
		})
		if err != nil {
			return nil, err
		}
		pr.elapsed = time.Since(zero)
		pr.events = int64(s.events) * int64(pr.cycles)
	}
	runtime.ReadMemStats(&after)
	pr.zero = zero.Sub(r.obs.zero)
	pr.mallocs = after.Mallocs - before.Mallocs
	pr.gcs = after.NumGC - before.NumGC
	pr.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return pr, nil
}

// stampReader hands an archive to mrt.Source and notes when each Read
// returned: the moment the records in it became the program's to
// process, which is what an archived burst's latencies are timed from.
type stampReader struct {
	r     *bytes.Reader
	zero  time.Time
	off   int64
	marks []int64 // (offset after the read, ns since zero) pairs
}

// newStampReader sizes marks for reads of a kilobyte, a quarter of what
// mrt.Source asks for at a time, so the timed replay does not grow it.
func newStampReader(b []byte) *stampReader {
	return &stampReader{r: bytes.NewReader(b), marks: make([]int64, 0, 2*(len(b)/1024+8))}
}

func (s *stampReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.off += int64(n)
	if n > 0 {
		s.marks = append(s.marks, s.off, int64(time.Since(s.zero)))
	}
	return n, err
}

// due returns when message i of phase k was due in cycle c, as an offset
// from the phase's start: the scheduled time of its chunk on an open
// loop, the moment its chunk's write began on a closed one, the moment
// the Read that carried its record returned for an archive.
func (in *inputs) due(k int, pr *phaseRun, i int32, c int) time.Duration {
	if in.archives != nil {
		peer := in.phases[k].plan.msgs[i].peer
		a := &in.archives[peer]
		end := int64(a.end[a.recOf[i]])
		// The replay read the whole archive, so some read reached the record.
		marks := pr.reads[peer]
		m := 2 * sort.Search(len(marks)/2, func(m int) bool { return marks[2*m] >= end })
		return time.Duration(marks[m+1])
	}
	s := in.wires[k]
	ck := s.chunkOf(i)
	if in.phases[k].rate > 0 {
		return s.chunks[ck].due
	}
	return time.Duration(pr.stamps[c*len(s.chunks)+ck])
}

// mark is one peer's position in its observer log, and how many of its
// inferences fusion had vetoed, when a phase starts.
type mark struct{ starts, decisions, provisions, vetoed int }

// marks must only run while the fleet is drained.
func (r *rig) marks() []mark {
	out := make([]mark, len(r.obs.peers))
	for i, l := range r.obs.peers {
		out[i] = mark{starts: l.starts, decisions: len(l.decisions), provisions: len(l.provisions)}
	}
	// Fleet.Peers sorts by key, which is the world's peer order.
	for i, p := range r.fleet.Peers() {
		p.Do(func(e *swiftengine.Engine) { out[i].vetoed = e.Vetoed() })
	}
	return out
}

func usDur(us int64) time.Duration { return time.Duration(us) * time.Microsecond }

// matchBursts pairs what the observer saw during phase k with the
// bursts the generator scripted, cycle by cycle. It returns the
// trigger-to-rule and fallback samples in milliseconds — +Inf for a
// burst the program missed — and books every departure from the script
// as a failed operation. On a traced run it also records each burst's
// spans.
func (r *rig) matchBursts(in *inputs, k int, pr *phaseRun, marks []mark, rep *report) (trigger, fallback []float64) {
	ph := &in.phases[k]
	p := ph.plan
	// Withdraw messages by (peer, virtual time): a decision's At names the
	// message that carried the withdrawal it fired on — the peer's own, or,
	// for a verdict fanned out by fusion, that of the joint failure's
	// member whose proposal confirmed it.
	type key struct {
		peer int
		at   int64
	}
	cause := make(map[key]int32)
	scripted := make([]int, len(in.w.peers))
	members := make(map[int][]int)
	for bi := range p.bursts {
		b := &p.bursts[bi]
		scripted[b.peer]++
		for _, i := range b.wd {
			cause[key{b.peer, p.msgs[i].at}] = i
		}
		if b.joint >= 0 {
			members[b.joint] = append(members[b.joint], b.peer)
		}
	}
	// causeOf finds the withdraw message of burst b (or, for an external
	// decision, of a fellow member of its joint failure) stamped at.
	causeOf := func(b *burstInfo, d *decisionRec, at int64) (int32, bool) {
		if !d.external {
			i, ok := cause[key{b.peer, at}]
			return i, ok && p.msgs[i].burst >= 0 && &p.bursts[p.msgs[i].burst] == b
		}
		for _, m := range members[b.joint] {
			if i, ok := cause[key{m, at}]; ok && p.bursts[p.msgs[i].burst].joint == b.joint {
				return i, true
			}
		}
		return 0, false
	}
	for i, l := range r.obs.peers {
		got := l.starts - marks[i].starts
		want := scripted[i] * pr.cycles
		rep.attempted += int64(want)
		if got != want {
			rep.fail(abs(got-want), "%s: peer %d opened %d bursts, %d scripted", ph.name, i, got, want)
		}
		if n := len(l.decisions) - marks[i].decisions; ph.quiet && n != 0 {
			rep.fail(n, "%s: peer %d made %d decisions in a phase that must stay quiet", ph.name, i, n)
		}
	}
	// The member scripted to be vetoed names the decoy link first. What
	// happens next depends on how far the background verdict pump runs
	// behind a saturated closed loop: the verdict reaches it and it
	// reroutes on the failed link; or it does not, and the veto stands; or
	// too few members were bursting yet for the gate to act, and its own
	// decision on the decoy stands. Each of its bursts must be accounted
	// for by one of the three.
	now := r.marks()
	unnamed := make([]int, len(in.w.peers))
	zero := int64(pr.zero)
	for c := 0; c < pr.cycles; c++ {
		shift := usDur(int64(c) * p.span)
		for bi := range p.bursts {
			b := &p.bursts[bi]
			l := r.obs.peers[b.peer]
			// The first decision caused by this burst that names the failed link.
			var hit *decisionRec
			var hitMsg int32
			decoyed := false
			for di := marks[b.peer].decisions; di < len(l.decisions) && hit == nil; di++ {
				d := &l.decisions[di]
				named, decoy := slices.Contains(d.links, b.link), b.vetoed && slices.Contains(d.links, b.decoy)
				if !named && !decoy {
					continue
				}
				if i, ok := causeOf(b, d, int64((d.at-shift)/time.Microsecond)); ok && named {
					hit, hitMsg = d, i
				} else if ok {
					decoyed = true
				}
			}
			switch {
			case hit != nil:
				due := int64(in.due(k, pr, hitMsg, c))
				trigger = append(trigger, float64(hit.wall-zero-due)/1e6)
				r.burstSpans("burst.trigger", int64(bi), int(p.msgs[hitMsg].peer), hit.at, zero+due, hit.wall, hit.infer)
			case decoyed:
			case b.vetoed:
				unnamed[b.peer]++
			default:
				trigger = append(trigger, math.Inf(1))
				rep.fail(1, "%s: burst %d on peer %d (link %v) got no decision naming the failed link", ph.name, bi, b.peer, b.link)
			}
			if b.open {
				continue
			}
			var fb *provisionRec
			count := 0
			for pi := marks[b.peer].provisions; pi < len(l.provisions); pi++ {
				if pv := &l.provisions[pi]; pv.fallback && pv.at == usDur(b.closeAt)+shift {
					fb = pv
					count++
				}
			}
			if count != 1 {
				rep.fail(1, "%s: burst %d on peer %d fell back %d times, want once", ph.name, bi, b.peer, count)
			}
			if fb == nil {
				fallback = append(fallback, math.Inf(1))
				continue
			}
			due := int64(in.due(k, pr, b.closeMsg, c))
			fallback = append(fallback, float64(fb.wall-zero-due)/1e6)
			r.burstSpans("burst.fallback", int64(bi), b.peer, fb.at, zero+due, fb.wall, 0)
		}
	}
	for i, n := range unnamed {
		rep.notes["bursts of the member scripted to be vetoed that the verdict never reached"] += n
		if vetoes := now[i].vetoed - marks[i].vetoed; vetoes < n {
			rep.fail(n-vetoes, "%s: peer %d left %d bursts without a decision on the failed link or the decoy, but fusion vetoed only %d of its inferences", ph.name, i, n, vetoes)
		}
	}
	rep.attempted += int64(len(p.bursts) * pr.cycles)
	return trigger, fallback
}

// burstSpans records, on a traced run, where the time of one burst
// milestone went: the root runs from when the message that caused it was
// due to when the observer saw it done, and is tiled by bmp.handoff (due
// to the Sink.Apply call carrying the message), controller.apply (that
// call) and swift.engine (its return to the observer hook: ring wait
// plus the engine's work), the last holding inference.infer when the
// milestone is a decision. All times are ns since the observer's zero,
// which is the tracer's.
func (r *rig) burstSpans(name string, id int64, peer int, at time.Duration, due, done int64, infer time.Duration) {
	if r.tr == nil {
		return
	}
	root := r.tr.add(name, due, done, -1, id, 1)
	b, ok := r.tr.batchFor(r.w.peers[peer].key, at)
	if !ok || b.start < due || b.end > done {
		// The carrying batch fell outside what the tracer kept: the root
		// stands alone.
		r.tr.counts["trace.bursts_unplaced"]++
		return
	}
	r.tr.add("bmp.handoff", due, b.start, root, id, 1)
	r.tr.add("controller.apply", b.start, b.end, root, id, int64(b.n))
	eng := r.tr.add("swift.engine", b.end, done, root, id, 1)
	if infer > 0 {
		r.tr.add("inference.infer", done-int64(infer), done, eng, id, 1)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
