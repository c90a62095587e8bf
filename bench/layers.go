package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"swift/internal/bgp"
	"swift/internal/bmp"
	"swift/internal/burst"
	"swift/internal/controller"
	"swift/internal/dataplane"
	"swift/internal/encoding"
	"swift/internal/event"
	"swift/internal/fusion"
	"swift/internal/inference"
	"swift/internal/mrt"
	"swift/internal/netaddr"
	"swift/internal/reroute"
	"swift/internal/rib"
	"swift/internal/ring"
	"swift/internal/snapshot"
	swiftengine "swift/internal/swift"
	"swift/internal/topology"
)

// layers runs after the timed sections of a traced run. It writes down,
// as spans and counts in the tracer, what the tracing sink, the observer
// and the program's own telemetry saw in situ, then replays the same
// inputs through each layer's public API in isolation ("iso." spans; N
// is the number of operations). It only measures: layerMetrics turns
// the trace into the per-layer table, so the trace file alone is enough
// to redo the table.
func (r *rig) layers(in *inputs, runs []*phaseRun, ingest *phaseRun, spare *rig, tr *tracer) error {
	c := tr.counts
	k := 0
	for k = range in.phases {
		if in.phases[k].ingest {
			break
		}
	}
	ph := &in.phases[k]

	// In situ: the hand-offs the tracing sink timed.
	c["bmp.batches_out"] = float64(tr.nBatches)
	c["bmp.batch_events"] = float64(tr.nEvents)
	r.batchSpans(in, k, ingest)
	c["ingest.events"] = float64(ingest.events)
	c["ingest.elapsed_ns"] = float64(ingest.elapsed)
	if ph.rate > 0 {
		c["ingest.open_loop"] = 1
	}
	c["bench.gc_cycles"] = float64(ingest.gcs)
	c["bench.gc_pause_ns"] = float64(ingest.gcPause)
	c["fleet.workers"] = float64(runtime.GOMAXPROCS(0))
	c["nproc"] = float64(runtime.NumCPU())
	if r.station != nil {
		m := r.station.Metrics()
		c["bmp.wire_bytes"] = float64(m.Bytes)
		c["bmp.decode_errors"] = float64(m.DecodeErrors)
	} else {
		for _, a := range in.archives {
			c["bmp.wire_bytes"] += float64(len(a.rib) + len(a.updates))
		}
	}
	// Open loops: how late the generator ran and what it offered.
	var late []float64
	for p, pr := range runs {
		if s := in.wireOf(p); s != nil && in.phases[p].rate > 0 {
			for i, ck := range s.chunks {
				late = append(late, float64(pr.stamps[i]-int64(ck.due))/1e6)
			}
			c["bench.offered_events_per_s"] = float64(s.events) / s.chunks[len(s.chunks)-1].due.Seconds()
		}
	}
	if len(late) > 0 {
		c["bench.gen_late_p95_ms"] = quantile(late, 0.95)
	}

	// In situ: what the observer and the program's own instruments counted.
	var deferred float64
	for _, p := range r.fleet.Peers() {
		deferred += float64(p.Status().Deferred)
	}
	c["swift.inferences_deferred"] = deferred
	var dataplaneNS, rules, own float64
	for _, l := range r.obs.peers {
		c["swift.bursts_started"] += float64(l.starts)
		c["swift.bursts_ended"] += float64(l.ends)
		c["swift.decisions"] += float64(len(l.decisions))
		for _, d := range l.decisions {
			if d.external {
				c["fusion.pretriggers"]++
				continue
			}
			own++
			rules += float64(d.rules)
			dataplaneNS += float64(d.dataplane)
		}
		for _, pv := range l.provisions {
			switch {
			case pv.fallback && pv.unchanged:
				c["swift.provision_skipped"]++
			case pv.fallback:
				c["swift.provision_full"]++
			}
		}
	}
	c["swift.own_decisions"], c["swift.rules_installed"], c["dataplane.modelled_write_ns"] = own, rules, dataplaneNS
	c["fusion.verdicts"] = float64(r.obs.verdicts.Load())
	if agg := r.fleet.Fusion(); agg != nil {
		c["fusion.vetoes"] = float64(agg.Stats().Vetoes)
	}
	ps := r.fleet.Pool().Stats()
	c["rib.pool_unique_paths"], c["rib.pool_unique_links"] = float64(ps.Paths), float64(ps.Links)
	c["rib.pool_max_shard_paths"] = float64(ps.MaxShardPaths())
	r.scrape(c)
	if ph.rate > 0 {
		if err := r.closedCapacity(in, k, tr); err != nil {
			return fmt.Errorf("closed-loop capacity of the open loop's stream: %w", err)
		}
	}

	// Isolated replays, layer by layer, over this workload's own inputs.
	// The collector is paused for them: with two fleets live a collection
	// costs more than most of these replays do, and which replay it lands
	// in is chance. A layer's figure here is its own work, allocation
	// included, collection excluded.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := in.wireOf(k)
	if s == nil {
		s = in.w.encode(ph.plan, 0, tick) // the archive's messages as BMP, for the codec layers
	}
	wireBytes := append(append(append([]byte(nil), s.head...), s.body...), s.tail...)
	msgs := int64(len(s.end))
	tr.timed("iso.bmp.frame", msgs, func() { walkFrames(wireBytes, false) })
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tr.timed("iso.bgp.decode", msgs, func() { walkFrames(wireBytes, true) })
	runtime.ReadMemStats(&ms1)
	c["bgp.decode_allocs"] = float64(ms1.Mallocs - ms0.Mallocs)
	null := &nullSink{}
	tr.timed("iso.bmp.station", msgs, func() {
		check(bmp.NewStation(bmp.StationConfig{Sink: null}).ServeConn(&memConn{Reader: bytes.NewReader(wireBytes)}))
	})
	if null.events != int64(s.events) {
		panic("bench: the null-sink station replay lost events")
	}
	c["iso.wire_events"] = float64(s.events)
	r.genOnly(in, k, tr)

	hops := tr.nBatches
	if hops > 1<<20 {
		hops = 1 << 20
	}
	rg := ring.New[event.Batch](64)
	done := make(chan struct{})
	go func() {
		for i := int64(0); i < hops; i++ {
			rg.Pop()
		}
		close(done)
	}()
	one := event.Batch{{}}
	tr.timed("iso.ring.hop", hops, func() {
		for i := int64(0); i < hops; i++ {
			rg.Push(one)
		}
		<-done
	})

	// The captured batches straight into a fresh fleet: no station, no TCP.
	runtime.ReadMemStats(&ms0)
	tr.timed("iso.controller.direct", int64(tr.capEv), func() {
		for _, b := range tr.captured {
			check(spare.fleet.Apply(b))
		}
		spare.fleet.Sync()
	})
	runtime.ReadMemStats(&ms1)
	c["controller.direct_allocs"] = float64(ms1.Mallocs - ms0.Mallocs)

	// One peer's share of them into one bare engine: the single-threaded
	// baseline.
	peer0 := in.w.peers[0].key
	e := in.w.bareEngine(0)
	tr.timed("iso.swift.provision", 1, func() { check(e.Provision()) })
	var mine []event.Batch
	var n0 int64
	for _, b := range tr.captured {
		if b[0].Peer == peer0 {
			mine = append(mine, b)
			n0 += int64(len(b))
		}
	}
	tr.timed("iso.swift.engine", n0, func() {
		for _, b := range mine {
			check(e.Apply(b))
		}
	})

	r.isoRoutes(in, tr)
	r.isoSnapshot(tr)
	r.isoMRT(in, tr)
	return nil
}

// unpaced returns the stream with its schedule dropped: an open loop's
// chunks go out back to back.
func (s *wire) unpaced() *wire {
	out := *s
	out.chunks = append([]chunk(nil), s.chunks...)
	for i := range out.chunks {
		out.chunks[i].due = 0
	}
	return &out
}

// closedCapacity sends the open loop's stream closed-loop — back to
// back, as fast as TCP accepts — into a fresh, untraced pipeline: the
// capacity the fixed offered rate must stay under half of, measured
// again by every traced run.
func (r *rig) closedCapacity(in *inputs, k int, tr *tracer) error {
	fresh, err := newRig(r.sp, in.w, nil)
	if err != nil {
		return err
	}
	defer fresh.close()
	if err := fresh.loadTables(in); err != nil {
		return err
	}
	s := in.wires[k].unpaced()
	runtime.GC()
	start := tr.now()
	err = fresh.session(func(conn net.Conn) error {
		if _, err := conn.Write(s.head); err != nil {
			return err
		}
		if _, err := s.play(conn, time.Now(), 0, 1, nil); err != nil {
			return err
		}
		_, err := conn.Write(s.tail)
		return err
	})
	tr.add("iso.bench.closed_capacity", start, tr.now(), -1, 0, int64(s.events))
	return err
}

// wireOf returns phase k's BMP encoding, nil for an archive workload.
func (in *inputs) wireOf(k int) *wire {
	if in.wires == nil {
		return nil
	}
	return in.wires[k]
}

// batchSpans turns a sample of the ingest phase's recorded batches into
// spans: batch.handoff from when the batch's first message was due to
// the Sink.Apply call that carried it, batch.apply round that call.
func (r *rig) batchSpans(in *inputs, k int, pr *phaseRun) {
	tr := r.tr
	p := in.phases[k].plan
	type key struct {
		peer event.PeerKey
		at   int64
	}
	first := make(map[key]int32, len(p.msgs))
	base := make(map[event.PeerKey]int64)
	for i := len(p.msgs) - 1; i >= 0; i-- {
		m := &p.msgs[i]
		pk := in.w.peers[m.peer].key
		first[key{pk, m.at}] = int32(i)
		base[pk] = m.at // ends as the peer's earliest message
	}
	lo, hi := int64(pr.zero), int64(pr.zero+pr.elapsed)
	var in_ []int
	for i := range tr.batches {
		if b := &tr.batches[i]; b.start >= lo && b.end <= hi {
			in_ = append(in_, i)
		}
	}
	stride := len(in_)/50_000 + 1
	for x := 0; x < len(in_); x += stride {
		b := &tr.batches[in_[x]]
		at := int64(b.at / time.Microsecond)
		c := 0
		if p.cyclic {
			c = int((at - base[b.peer]) / p.span)
			at -= int64(c) * p.span
		}
		tr.add("batch.apply", b.start, b.end, -1, int64(in_[x]), int64(b.n))
		if i, ok := first[key{b.peer, at}]; ok {
			if due := lo + int64(in.due(k, pr, i, c)); due <= b.start {
				tr.add("batch.handoff", due, b.start, -1, int64(in_[x]), 1)
			}
		}
	}
}

// scrape reads the fleet's own telemetry — the instruments an operator
// would — for the figures the fleet does not export any other way.
func (r *rig) scrape(c map[string]float64) {
	var buf bytes.Buffer
	check(r.reg.WritePrometheus(&buf))
	var shards, peers, max float64
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case name == "swift_fleet_ring_full_total":
			c["controller.ring_full_total"] = v
		case strings.HasPrefix(name, "swift_fleet_shard_peers{"):
			shards++
			peers += v
			if v > max {
				max = v
			}
		}
	}
	if peers > 0 {
		c["controller.shard_peers_max_over_mean"] = max / (peers / shards)
	}
}

// walkFrames frames every message of a BMP byte stream and, with decode
// set, parses each Route Monitoring message the way the station's hot
// path does: per-peer header, BGP header, reusable UPDATE decoder.
func walkFrames(wire []byte, decode bool) {
	rd := bmp.NewReader(bytes.NewReader(wire))
	var hdr bmp.PeerHeader
	var dec bgp.UpdateDecoder
	for {
		typ, body, err := rd.Next()
		if err == io.EOF {
			return
		}
		check(err)
		if !decode || typ != bmp.TypeRouteMonitoring {
			continue
		}
		b, err := bmp.ParsePeerHeader(body, &hdr)
		check(err)
		h, err := bgp.ParseHeader(b)
		check(err)
		check(dec.Decode(b[bgp.HeaderLen:h.Len]))
	}
}

// nullSink counts what it is handed and drops it. It is not a
// Provisioner, so a station feeding it treats every peer as live.
type nullSink struct{ batches, events int64 }

func (s *nullSink) Apply(b event.Batch) error {
	s.batches++
	s.events += int64(len(b))
	return nil
}

// nullTable is a nullSink that also accepts a table transfer.
type nullTable struct{ nullSink }

func (*nullTable) Learn(event.PeerKey, netaddr.Prefix, []uint32) {}
func (*nullTable) Provisioned(event.PeerKey) bool                { return false }
func (*nullTable) Provision(event.PeerKey) error                 { return nil }

// memConn is a net.Conn that reads from memory, for driving
// Station.ServeConn without a socket.
type memConn struct {
	*bytes.Reader
}

func (*memConn) Write(p []byte) (int, error)      { return len(p), nil }
func (*memConn) Close() error                     { return nil }
func (*memConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (*memConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (*memConn) SetDeadline(time.Time) error      { return nil }
func (*memConn) SetReadDeadline(time.Time) error  { return nil }
func (*memConn) SetWriteDeadline(time.Time) error { return nil }

// genOnly measures the generator alone: the ingest phase's stream
// written into a reader that discards it — over loopback TCP for BMP,
// through the stamping readers for an archive.
func (r *rig) genOnly(in *inputs, k int, tr *tracer) {
	if in.archives != nil {
		var events int64
		for _, a := range in.archives {
			events += int64(a.events)
		}
		tr.timed("iso.bench.gen_only", events, func() {
			for _, a := range in.archives {
				rd := newStampReader(a.updates)
				rd.zero = time.Now()
				_, err := io.Copy(io.Discard, struct{ io.Reader }{rd})
				check(err)
			}
		})
		return
	}
	s := in.wires[k]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, conn)
		conn.Close()
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	check(err)
	unpaced := s.unpaced()
	tr.timed("iso.bench.gen_only", int64(s.events), func() {
		_, err := unpaced.play(conn, time.Now(), 0, 1, nil)
		check(err)
		conn.Close()
		<-drained
	})
}

// isoRoutes replays peer 0's table through the route-handling layers
// one at a time: rib, burst, inference, reroute, encoding, dataplane,
// fusion.
func (r *rig) isoRoutes(in *inputs, tr *tracer) {
	w := in.w
	p := &w.peers[0]
	n := int64(p.size)
	pool := rib.NewPool()
	primary := rib.NewWithPool(localAS, pool)
	prefixes := make([]netaddr.Prefix, 0, p.size)
	detour := make([][]uint32, 0, p.size) // the path replacement churn would announce
	for _, gr := range p.groups {
		for o := 0; o < gr.origins; o++ {
			a := w.appendPath(nil, 0, gr.g, o, routePresent)
			b := w.appendPath(nil, 0, gr.g, o, routePresent|routeVariant)
			for j := 0; j < originPrefixes; j++ {
				pfx := w.prefix(gr.g, o, j)
				primary.Announce(pfx, a)
				prefixes, detour = append(prefixes, pfx), append(detour, b)
			}
		}
	}
	alts := map[uint32]*rib.Table{altNeighbor1: rib.NewWithPool(localAS, pool), altNeighbor2: rib.NewWithPool(localAS, pool)}
	w.loadAlternates(0, func(nb uint32, pfx netaddr.Prefix, path []uint32) { alts[nb].Announce(pfx, path) })

	// rib: the streaming hot path replaces a route's path or withdraws it.
	scratch := primary.Clone()
	tr.timed("iso.rib.announce", n, func() {
		for i, pfx := range prefixes {
			scratch.Announce(pfx, detour[i])
		}
	})
	tr.timed("iso.rib.withdraw", n, func() {
		for _, pfx := range prefixes {
			scratch.Withdraw(pfx)
		}
	})

	det := burst.NewDetector(burst.Config{}, &burst.History{})
	const observations = 200_000
	tr.timed("iso.burst.observe", observations, func() {
		for i := 0; i < observations; i++ {
			det.ObserveWithdrawal(time.Duration(i) * 10 * time.Millisecond)
		}
	})

	// inference: one failure of the first group up to the paper's trigger.
	tracked := primary.Clone()
	tk := inference.NewTracker(inference.Default(), tracked)
	trigger := inference.Default().TriggerEvery
	if trigger > len(prefixes) {
		trigger = len(prefixes)
	}
	tr.timed("iso.inference.observe_withdraw", int64(trigger), func() {
		for _, pfx := range prefixes[:trigger] {
			tk.ObserveWithdraw(pfx)
		}
	})
	tr.timed("iso.inference.infer", 1, func() { tk.Infer() })

	var plan *reroute.Plan
	tr.timed("iso.reroute.compute", 1, func() { plan = reroute.Compute(localAS, primary, alts, nil, encoding.Default().MaxDepth) })
	cov := plan.Coverage()
	for _, protected := range cov.Protected {
		tr.counts["reroute.protected"] += float64(protected)
	}
	tr.counts["reroute.protectable"] = float64(cov.Total * len(cov.Protected))
	var scheme *encoding.Scheme
	tr.timed("iso.encoding.build", 1, func() {
		var err error
		scheme, err = encoding.Build(encoding.Default(), primary, plan)
		check(err)
	})
	failed := []topology.Link{topology.MakeLink(transitAS(p.groups[0].g/2, 0), midAS(p.groups[0].g))}
	const reps = 200
	var rules []encoding.Rule
	tr.timed("iso.encoding.reroute_rules", reps, func() {
		for i := 0; i < reps; i++ {
			rules = scheme.RerouteRules(failed)
		}
	})
	for i := range rules {
		rules[i].Priority = swiftengine.ReroutePriority
	}

	fib := dataplane.New(dataplane.Config{})
	tr.timed("iso.dataplane.replace_tags", 1, func() { fib.ReplaceTags(scheme.Tags()) })
	if rule, ok := scheme.PrimaryRule(p.key.AS); ok {
		fib.InstallRule(rule)
	}
	tr.timed("iso.dataplane.install_rules", reps, func() {
		for i := 0; i < reps; i++ {
			fib.InstallRules(rules)
			fib.RemoveRulesAt(swiftengine.ReroutePriority)
		}
	})
	addrs := w.sample(0, sweepPackets, 1)
	nh, ok := make([]uint32, len(addrs)), make([]bool, len(addrs))
	tr.timed("iso.dataplane.first_read", 1, func() { fib.ForwardBatch(addrs, nh, ok) })
	const sweeps = 20
	tr.timed("iso.dataplane.forward_batch", sweeps*sweepPackets, func() {
		for i := 0; i < sweeps; i++ {
			fib.ForwardBatch(addrs, nh, ok)
		}
	})
	tr.timed("iso.dataplane.forward_scalar", sweeps*sweepPackets/4, func() {
		for i := 0; i < sweeps/4; i++ {
			for k, a := range addrs {
				nh[k], ok[k] = fib.Forward(a)
			}
		}
	})

	// fusion: three bursting peers taking turns to propose the same link.
	agg := fusion.NewAggregator(fusion.Config{}, pool)
	for i := 0; i < 3; i++ {
		agg.BurstStart(w.peers[i%len(w.peers)].key, 0)
	}
	const proposals = 50_000
	tr.timed("iso.fusion.propose", proposals, func() {
		for i := 0; i < proposals; i++ {
			agg.Propose(fusion.Proposal{Peer: w.peers[i%3%len(w.peers)].key, At: time.Duration(i), Links: failed, FS: 0.889, Received: 2500, Withdrawn: prefixes[:64]})
		}
	})
}

// isoSnapshot times the checkpoint layers without the disk: encode to
// memory, decode, restore.
func (r *rig) isoSnapshot(tr *tracer) {
	var buf bytes.Buffer
	tr.timed("iso.snapshot.write", 1, func() { check(r.fleet.Snapshot(&buf)) })
	tr.counts["snapshot.bytes"] = float64(buf.Len())
	tr.timed("iso.snapshot.read", 1, func() {
		_, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
		check(err)
	})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tr.timed("iso.snapshot.restore", 1, func() {
		f, err := controller.RestoreFleet(bytes.NewReader(buf.Bytes()), restoreConfig())
		check(err)
		f.Close()
	})
	runtime.ReadMemStats(&ms1)
	tr.counts["snapshot.restore_allocs"] = float64(ms1.Mallocs - ms0.Mallocs)
}

// isoMRT walks peer 0's table as a TABLE_DUMP_V2 file: the reader
// alone, then mrt.Source into a sink that accepts and drops everything.
func (r *rig) isoMRT(in *inputs, tr *tracer) {
	dump := in.w.encodeRIB(0)
	routes := int64(in.w.peers[0].size)
	tr.timed("iso.mrt.rib_walk", routes, func() {
		check(mrt.WalkRIBIPv4Reuse(bytes.NewReader(dump), func(*mrt.RIBRecord) error { return nil }))
	})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tr.timed("iso.mrt.source", routes, func() {
		src := &mrt.Source{RIB: bytes.NewReader(dump), Updates: bytes.NewReader(nil), Peer: in.w.peers[0].key}
		check(src.Run(&nullTable{}))
	})
	runtime.ReadMemStats(&ms1)
	tr.counts["mrt.source_allocs"] = float64(ms1.Mallocs - ms0.Mallocs)
	if in.archives != nil {
		// The update file through mrt.Source into the null sink: the
		// archive workload's decode stage, for the throughput ledger.
		var events int64
		for _, a := range in.archives {
			events += int64(a.events)
		}
		tr.timed("iso.mrt.updates", events, func() {
			for i, a := range in.archives {
				src := &mrt.Source{Updates: bytes.NewReader(a.updates), Peer: in.w.peers[i].key, Epoch: epoch}
				check(src.Run(&nullSink{}))
			}
		})
	}
}

// layerMetrics derives the per-layer table from a trace: spans and
// counts, as held in memory or read back from a trace file.
func layerMetrics(spans []span, c map[string]float64) map[string]float64 {
	lt := selfTimes(spans)
	per := func(name string) float64 { // ns per operation of an isolated replay
		if t := lt[name]; t != nil && t.n > 0 {
			return float64(t.total) / float64(t.n)
		}
		return 0
	}
	ops := func(name string) float64 {
		if t := lt[name]; t != nil {
			return float64(t.n)
		}
		return 0
	}
	total := func(name string) float64 {
		if t := lt[name]; t != nil {
			return float64(t.total)
		}
		return 0
	}
	durations := func(name string) []float64 {
		var out []float64
		for i := range spans {
			if spans[i].Name == name {
				out = append(out, float64(spans[i].End-spans[i].Start))
			}
		}
		return out
	}
	// A figure of a phase the workload does not have — a burst latency
	// where no burst is scripted, rules per decision where nothing is
	// decided — is reported as 0.
	q := func(xs []float64, p float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return quantile(xs, p)
	}
	over := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := make(map[string]float64)
	frame, decode, station := per("iso.bmp.frame"), per("iso.bgp.decode"), per("iso.bmp.station")
	msgs := ops("iso.bmp.frame")
	m["bmp.frame_ns_per_msg"] = frame
	m["bgp.decode_ns_per_msg"] = decode - frame
	m["bgp.decode_allocs_per_msg"] = c["bgp.decode_allocs"] / msgs
	m["bmp.station_ns_per_msg"] = station - decode
	m["bmp.station_msgs_per_s_nullsink"] = 1e9 / station
	m["bmp.batches_out"] = c["bmp.batches_out"]
	m["bmp.batch_events_mean"] = over(c["bmp.batch_events"], c["bmp.batches_out"])
	m["bmp.handoff_wait_p50_ms"] = q(durations("batch.handoff"), 0.5) / 1e6
	m["bmp.wire_bytes"] = c["bmp.wire_bytes"]
	m["bmp.decode_errors"] = c["bmp.decode_errors"]
	m["ring.hop_ns_per_batch"] = per("iso.ring.hop")
	applies := durations("batch.apply")
	m["controller.apply_ns_per_batch"] = mean(applies)
	m["controller.apply_p95_us"] = q(applies, 0.95) / 1e3
	m["controller.fleet_events_per_s_direct"] = 1e9 / per("iso.controller.direct")
	m["controller.allocs_per_kevent_direct"] = c["controller.direct_allocs"] / ops("iso.controller.direct") * 1000
	m["controller.sync_drain_ms"] = total("controller.sync") / 1e6
	m["controller.shard_peers_max_over_mean"] = c["controller.shard_peers_max_over_mean"]
	m["controller.ring_full_total"] = c["controller.ring_full_total"]
	m["swift.engine_events_per_s_1peer"] = 1e9 / per("iso.swift.engine")
	m["swift.provision_ms"] = total("iso.swift.provision") / 1e6
	for _, name := range []string{"swift.bursts_started", "swift.bursts_ended", "swift.decisions", "swift.inferences_deferred",
		"swift.provision_full", "swift.provision_skipped", "rib.pool_unique_paths", "rib.pool_unique_links",
		"fusion.verdicts", "fusion.pretriggers", "fusion.vetoes", "snapshot.bytes", "snapshot.restore_allocs", "bench.gc_cycles"} {
		m[name] = c[name]
	}
	m["rib.announce_ns"] = per("iso.rib.announce")
	m["rib.withdraw_ns"] = per("iso.rib.withdraw")
	m["rib.pool_max_shard_share"] = c["rib.pool_max_shard_paths"] / c["rib.pool_unique_paths"]
	m["burst.observe_ns"] = per("iso.burst.observe")
	m["inference.observe_withdraw_ns"] = per("iso.inference.observe_withdraw")
	infers := durations("inference.infer")
	if len(infers) == 0 {
		infers = durations("iso.inference.infer")
	}
	m["inference.infer_p50_us"] = q(infers, 0.5) / 1e3
	m["inference.infer_p95_us"] = q(infers, 0.95) / 1e3
	m["reroute.compute_ms"] = total("iso.reroute.compute") / 1e6
	m["reroute.backup_coverage_share"] = c["reroute.protected"] / c["reroute.protectable"]
	m["encoding.build_ms"] = total("iso.encoding.build") / 1e6
	m["encoding.reroute_rules_us"] = per("iso.encoding.reroute_rules") / 1e3
	m["encoding.rules_per_decision_mean"] = over(c["swift.rules_installed"], c["swift.own_decisions"])
	m["dataplane.replace_tags_ms"] = total("iso.dataplane.replace_tags") / 1e6
	m["dataplane.install_rules_us"] = per("iso.dataplane.install_rules") / 1e3
	m["dataplane.first_read_ms"] = total("iso.dataplane.first_read") / 1e6
	m["dataplane.forward_ns_per_pkt_batch"] = per("iso.dataplane.forward_batch")
	m["dataplane.forward_ns_per_pkt_scalar"] = per("iso.dataplane.forward_scalar")
	m["dataplane.modelled_write_ms_per_decision"] = over(c["dataplane.modelled_write_ns"], c["swift.own_decisions"]) / 1e6
	m["fusion.propose_ns"] = per("iso.fusion.propose")
	m["snapshot.write_ms"] = total("iso.snapshot.write") / 1e6
	m["snapshot.read_ms"] = total("iso.snapshot.read") / 1e6
	m["snapshot.restore_ms"] = total("iso.snapshot.restore") / 1e6
	m["mrt.rib_walk_ns_per_route"] = per("iso.mrt.rib_walk")
	m["mrt.source_ns_per_route"] = per("iso.mrt.source")
	m["mrt.source_allocs_per_route"] = c["mrt.source_allocs"] / ops("iso.mrt.source")
	m["bench.gen_only_events_per_s"] = 1e9 / per("iso.bench.gen_only")
	m["bench.gc_pause_total_ms"] = c["bench.gc_pause_ns"] / 1e6
	for _, name := range []string{"bench.gen_late_p95_ms", "bench.offered_events_per_s"} {
		if v, ok := c[name]; ok {
			m[name] = v
		}
	}
	if t := lt["iso.bench.closed_capacity"]; t != nil {
		m["bench.closed_capacity_events_per_s"] = 1e9 / per("iso.bench.closed_capacity")
		m["bench.offered_share_of_capacity"] = c["bench.offered_events_per_s"] / m["bench.closed_capacity_events_per_s"]
	}
	c["iso.wire_msgs"] = msgs
	// The figures the untraced run reports without a bound, from this lap.
	m["pipeline.cold_ingest_s"] = q(durations("setup.cold"), 0.5) / 1e9
	m["pipeline.ingest_events_per_s"] = c["ingest.events"] / c["ingest.elapsed_ns"] * 1e9
	triggers := durations("burst.trigger")
	m["pipeline.trigger_to_rule_p50_ms"] = q(triggers, 0.50) / 1e6
	m["pipeline.trigger_to_rule_p95_ms"] = q(triggers, 0.95) / 1e6
	m["pipeline.fallback_p50_ms"] = q(durations("burst.fallback"), 0.50) / 1e6
	m["pipeline.checkpoint_s"] = q(durations("round.checkpoint"), 0.5) / 1e9
	m["pipeline.warm_ready_s"] = q(durations("round.warm"), 0.5) / 1e9
	m["pipeline.forward_mpps"] = 0
	for i := range spans {
		if s := &spans[i]; s.Name == "round.sweep" {
			m["pipeline.forward_mpps"] = max(m["pipeline.forward_mpps"], float64(s.N)/float64(s.End-s.Start)*1e3)
		}
	}
	m["pipeline.unexplained_share"] = unexplained(spans, lt, c, m)
	return m
}

// unexplained is the share of the end-to-end figure the layer costs do
// not account for.
//
// A closed loop (or an archive replay) is a pipeline of three stages that
// overlap on nproc processors: the generator G, the decode stage A (the
// station, or mrt.Source, into a null sink) and the apply stage B (ring
// hop plus engine, spread over the fleet's workers). Its time per event
// can be no less than the slowest stage, nor than all the work divided
// by the processors; what the measured time per event exceeds that by is
// unexplained: TCP, scheduling, locks, GC, cache misses the isolated
// replays do not suffer.
//
// An open loop is judged per burst: of each trigger-to-rule span, the
// Sink.Apply call, the inference, the rule build and install, the engine
// work for the batch that carried the trigger and the station's work for
// the chunk that carried it are explained; the rest — generator
// lateness, the socket, wake-ups, queueing behind other peers — is not.
func unexplained(spans []span, lt map[string]*layerTime, c, m map[string]float64) float64 {
	engine := 1e9 / m["swift.engine_events_per_s_1peer"] // ns per event, single-threaded
	if c["ingest.open_loop"] == 0 {
		events := c["ingest.events"]
		e2e := c["ingest.elapsed_ns"] / events
		g := 1e9 / m["bench.gen_only_events_per_s"]
		a := (m["bmp.frame_ns_per_msg"] + m["bgp.decode_ns_per_msg"] + m["bmp.station_ns_per_msg"]) * c["iso.wire_msgs"] / c["iso.wire_events"]
		if t := lt["iso.mrt.updates"]; t != nil {
			a = float64(t.total) / float64(t.n)
		}
		b := engine + m["ring.hop_ns_per_batch"]/m["bmp.batch_events_mean"]
		workers := c["fleet.workers"]
		if workers > c["nproc"] {
			workers = c["nproc"]
		}
		explained := a
		if b/workers > explained {
			explained = b / workers
		}
		if all := (g + a + b) / c["nproc"]; all > explained {
			explained = all
		}
		return 1 - explained/e2e
	}
	station := (m["bmp.frame_ns_per_msg"] + m["bgp.decode_ns_per_msg"] + m["bmp.station_ns_per_msg"]) * c["iso.wire_msgs"] / c["iso.wire_events"] // ns per event
	rules := (m["encoding.reroute_rules_us"] + m["dataplane.install_rules_us"]) * 1e3
	var roots, explained []float64
	for i := range spans {
		if spans[i].Name != "burst.trigger" {
			continue
		}
		// A burst's spans follow its root: three children and, under the
		// last of them, the inference.
		ex := rules
		for k := i + 1; k < len(spans) && spans[k].Parent >= i; k++ {
			switch s := &spans[k]; s.Name {
			case "controller.apply":
				ex += float64(s.End-s.Start) + float64(s.N)*(engine+station)
			case "inference.infer":
				ex += float64(s.End - s.Start)
			}
		}
		roots, explained = append(roots, float64(spans[i].End-spans[i].Start)), append(explained, ex)
	}
	if len(roots) == 0 {
		return 0
	}
	return 1 - median(explained)/median(roots)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
