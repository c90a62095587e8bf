package swift

import (
	"testing"
	"time"

	"swift/internal/event"
	"swift/internal/fusion"
	"swift/internal/netaddr"
	"swift/internal/telemetry"
)

// benchBurstCycle builds a self-restoring 10k-event burst: 3,000
// withdrawals open a burst and trigger an inference, the same prefixes
// re-announce (BGP reconverging onto a new path), ~4k steady-state
// refreshes drain the window, and a final tick closes the burst so the
// engine falls back and re-provisions. The engine ends every cycle in
// its starting state, so one engine serves every benchmark iteration —
// the timer sees only the pipeline, not setup.
func benchBurstCycle(prefixes []netaddr.Prefix) event.Batch {
	const nEvents = 10000
	const wd = 3000
	batch := make(event.Batch, 0, nEvents)
	at := time.Duration(0)
	for i := 0; i < wd; i++ {
		at += time.Millisecond
		batch = append(batch, event.Withdraw(at, prefixes[i]))
	}
	newPath := []uint32{2, 9, 6} // one shared slice, as a real source emits
	for i := 0; i < wd; i++ {
		at += time.Millisecond
		batch = append(batch, event.Announce(at, prefixes[i], newPath))
	}
	oldPath := []uint32{2, 5, 6}
	for len(batch) < nEvents-1 {
		at += time.Millisecond
		batch = append(batch, event.Announce(at, prefixes[len(batch)%len(prefixes)], oldPath))
	}
	batch = append(batch, event.Tick(at+time.Hour))
	return batch
}

func benchEngine(tb testing.TB, prefixes []netaddr.Prefix) *Engine {
	return benchEngineMetrics(tb, prefixes, Metrics{})
}

func benchEngineMetrics(tb testing.TB, prefixes []netaddr.Prefix, m Metrics) *Engine {
	cfg := Config{LocalAS: 1, PrimaryNeighbor: 2}
	cfg.Inference.TriggerEvery = 2000
	cfg.Inference.UseHistory = false
	cfg.Burst.StartThreshold = 1500
	cfg.Encoding.MinPrefixes = 1000
	cfg.Metrics = m
	e := New(cfg)
	for _, p := range prefixes {
		e.LearnPrimary(p, []uint32{2, 5, 6})
		e.LearnAlternate(3, p, []uint32{3, 6})
	}
	if err := e.Provision(); err != nil {
		tb.Fatal(err)
	}
	return e
}

// shiftBatch advances every event's stream offset by span so
// back-to-back cycles keep the engine clock monotonic.
func shiftBatch(b event.Batch, span time.Duration) {
	for i := range b {
		b[i].At += span
	}
}

// applyPerEvent delivers batch one event at a time through a reused
// one-element batch — the per-message baseline batching amortizes.
func applyPerEvent(tb testing.TB, e *Engine, batch event.Batch) {
	var one [1]event.Event
	for i := range batch {
		one[0] = batch[i]
		if err := e.Apply(one[:]); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkEngineApplyBatch compares the two delivery modes over the
// same 10k-event burst cycle (detect → infer → reroute → reconverge →
// fall back): one Apply call per batch versus one Apply call per
// event. Both make identical decisions — the batched mode only
// amortizes the per-delivery setup — so the gap is pure API overhead.
func BenchmarkEngineApplyBatch(b *testing.B) {
	prefixes := make([]netaddr.Prefix, 4096)
	for i := range prefixes {
		prefixes[i] = netaddr.PrefixFor(8, i)
	}
	base := benchBurstCycle(prefixes)
	span := base[len(base)-1].At + time.Hour

	modes := []struct {
		name string
		run  func(e *Engine, batch event.Batch)
	}{
		{"batched", func(e *Engine, batch event.Batch) {
			if err := e.Apply(batch); err != nil {
				b.Fatal(err)
			}
		}},
		{"per-event", func(e *Engine, batch event.Batch) { applyPerEvent(b, e, batch) }},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			batch := append(event.Batch(nil), base...)
			e := benchEngine(b, prefixes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.run(e, batch)
				shiftBatch(batch, span)
			}
			b.StopTimer()
			if e.NumDecisions() != b.N {
				b.Fatalf("made %d decisions over %d cycles; the workload is vacuous", e.NumDecisions(), b.N)
			}
			b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// benchMetrics resolves a full pre-resolved handle set against a live
// registry — the exact wiring an instrumented fleet peer carries.
func benchMetrics(reg *telemetry.Registry) Metrics {
	return Metrics{
		Withdrawals:         reg.CounterVec("swift_peer_withdrawals_total", "", "peer").With("bench"),
		Announcements:       reg.CounterVec("swift_peer_announcements_total", "", "peer").With("bench"),
		BurstsStarted:       reg.CounterVec("swift_peer_bursts_started_total", "", "peer").With("bench"),
		BurstsEnded:         reg.CounterVec("swift_peer_bursts_ended_total", "", "peer").With("bench"),
		Decisions:           reg.CounterVec("swift_peer_decisions_total", "", "peer").With("bench"),
		RulesInstalled:      reg.CounterVec("swift_peer_rules_installed_total", "", "peer").With("bench"),
		InferencesDeferred:  reg.CounterVec("swift_peer_inferences_deferred_total", "", "peer").With("bench"),
		Provisions:          reg.CounterVec("swift_peer_provisions_total", "", "peer").With("bench"),
		ProvisionsUnchanged: reg.CounterVec("swift_peer_provisions_unchanged_total", "", "peer").With("bench"),
		InferLatency:        reg.HistogramVec("swift_peer_infer_latency_seconds", "", telemetry.DefLatencyBuckets, "peer").With("bench"),
		BurstDuration:       reg.HistogramVec("swift_peer_burst_duration_seconds", "", telemetry.DefDurationBuckets, "peer").With("bench"),
	}
}

// BenchmarkEngineApplySteadyState measures pure delivery overhead with
// no burst machinery: announce refreshes of known prefixes, the
// collector steady state. The telemetry mode runs the same batched
// delivery on a fully instrumented engine — the perf gate for the
// pre-resolved-handle design, which must stay 0 allocs/op.
func BenchmarkEngineApplySteadyState(b *testing.B) {
	const nEvents = 4096
	prefixes := make([]netaddr.Prefix, nEvents)
	for i := range prefixes {
		prefixes[i] = netaddr.PrefixFor(8, i)
	}
	e := benchEngine(b, prefixes)
	path := []uint32{2, 5, 6}
	batch := make(event.Batch, 0, nEvents)
	for i, p := range prefixes {
		batch = append(batch, event.Announce(time.Duration(i)*time.Microsecond, p, path))
	}
	for _, mode := range []string{"batched", "telemetry", "per-event"} {
		b.Run(mode, func(b *testing.B) {
			eng := e
			if mode == "telemetry" {
				eng = benchEngineMetrics(b, prefixes, benchMetrics(telemetry.NewRegistry()))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "per-event" {
					applyPerEvent(b, eng, batch)
				} else {
					if err := eng.Apply(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(nEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// TestApplySteadyStateZeroAllocInstrumented pins the telemetry design
// contract: a fully instrumented engine's steady-state Apply allocates
// nothing — handles are pre-resolved, tallies are batch-local, flushes
// are plain atomic adds. The fused variant wires the engine into a
// live evidence aggregator: steady-state deliveries make no decisions,
// so the fusion gate must stay entirely off the hot path and the
// contract is unchanged.
func TestApplySteadyStateZeroAllocInstrumented(t *testing.T) {
	const nEvents = 1024
	prefixes := make([]netaddr.Prefix, nEvents)
	for i := range prefixes {
		prefixes[i] = netaddr.PrefixFor(8, i)
	}
	path := []uint32{2, 5, 6}
	batch := make(event.Batch, 0, nEvents)
	for i, p := range prefixes {
		batch = append(batch, event.Announce(time.Duration(i)*time.Microsecond, p, path))
	}
	for _, mode := range []string{"plain", "fused"} {
		t.Run(mode, func(t *testing.T) {
			e := benchEngineMetrics(t, prefixes, benchMetrics(telemetry.NewRegistry()))
			if mode == "fused" {
				agg := fusion.NewAggregator(fusion.Config{}, e.Pool())
				key := event.PeerKey{AS: 2, BGPID: 1}
				e.cfg.Fusion = agg.Gate(key)
				agg.BurstStart(key, 0)
				defer agg.Retract(key)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if err := e.Apply(batch); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("instrumented steady-state Apply (%s) allocates %.1f/op, want 0", mode, allocs)
			}
		})
	}
}

// TestReprovisionAllocs pins the cost of the burst-end fallback: a full
// recompile (plan, scheme, sorted tag assignment, stage-1 copy into
// the previous table's buffer) of a 20k-prefix peer allocates a few
// hundred objects — dictionaries and a handful of table-sized slices —
// not two per prefix.
func TestReprovisionAllocs(t *testing.T) {
	const n = 20000
	e := New(Config{LocalAS: 1, PrimaryNeighbor: 2, DisableProvisionSkip: true})
	for i := 0; i < n; i++ {
		origin := uint32(100 + i%40)
		p := netaddr.PrefixFor(origin, i/40)
		e.LearnPrimary(p, []uint32{2, 5 + origin%4, 20 + origin%7, origin})
		e.LearnAlternate(3, p, []uint32{3, 30 + origin%3, origin})
		if i%2 == 0 {
			e.LearnAlternate(4, p, []uint32{4, origin})
		}
	}
	if err := e.Provision(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := e.provision(time.Second, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 2000 {
		t.Fatalf("burst-end re-provision of %d prefixes: %.0f allocs, want < 2000", n, allocs)
	}
	if got := e.FIB().NumTags(); got != n {
		t.Fatalf("NumTags after re-provision = %d, want %d", got, n)
	}
}
