package controller

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"swift/internal/event"
	"swift/internal/fusion"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
)

// fusedFleetConfig is the shared engine shape for the fusion tests and
// benchmark: thresholds sized so fleetBurstCycle triggers a real
// inference on every peer, all peers feeding one evidence aggregator.
func fusedFleetConfig(prefixes []netaddr.Prefix, fail func(error)) FleetConfig {
	return FleetConfig{
		Fusion: &fusion.Config{},
		Engine: func(key PeerKey) swiftengine.Config {
			cfg := swiftengine.Config{LocalAS: 1, PrimaryNeighbor: 2}
			cfg.Inference.TriggerEvery = 2000
			cfg.Inference.UseHistory = false
			cfg.Burst.StartThreshold = 1500
			cfg.Encoding.MinPrefixes = 1000
			return cfg
		},
		OnPeer: func(p *FleetPeer) {
			for _, pfx := range prefixes {
				p.LearnPrimary(pfx, []uint32{2, 5, 6})
				p.LearnAlternate(3, pfx, []uint32{3, 6})
			}
			if err := p.Provision(); err != nil {
				fail(err)
			}
		},
		QueueDepth: 32,
	}
}

// TestFleetFusionChurnUnderLoad is the fused counterpart of
// TestFleetPeerChurnUnderLoad, run with -race: feeder goroutines drive
// full burst cycles (inference, Propose, verdict publication through
// the background pump) while a churner connects and tears down peers
// and another goroutine forces verdict fan-out with explicit FusePump
// calls. Aggregator evidence, epoch-gated ApplyExternal under the peer
// locks and async teardown must not race; afterwards every peer closes
// and the shared pool drains, with peers the churner killed mid-burst
// having retracted their evidence from the aggregator.
func TestFleetFusionChurnUnderLoad(t *testing.T) {
	prefixes := make([]netaddr.Prefix, 4096)
	for i := range prefixes {
		prefixes[i] = netaddr.PrefixFor(8, i)
	}
	var failOnce sync.Once
	var provisionErr error
	f := NewFleet(fusedFleetConfig(prefixes, func(err error) {
		failOnce.Do(func() { provisionErr = err })
	}))
	if provisionErr != nil {
		t.Fatal(provisionErr)
	}

	const (
		feeders = 4
		rounds  = 30
	)
	var wg sync.WaitGroup
	for g := 0; g < feeders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := PeerKey{AS: 2, BGPID: uint32(g + 1)}
			cycle := fleetBurstCycle(key, prefixes)
			span := cycle[len(cycle)-1].At + time.Hour
			for i := 0; i < rounds; i++ {
				p := f.Peer(key)
				const chunk = 512
				for lo := 0; lo < len(cycle); lo += chunk {
					hi := lo + chunk
					if hi > len(cycle) {
						hi = len(cycle)
					}
					// A false return means the churner tore the peer down
					// mid-burst — the documented contract, not an error.
					if !p.Enqueue(cycle[lo:hi:hi]) {
						break
					}
				}
				p.Sync()
				shiftFleetBatch(cycle, span)
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*feeders; i++ {
			f.ClosePeer(PeerKey{AS: 2, BGPID: uint32(i%feeders + 1)})
			runtime.Gosched()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*feeders; i++ {
			f.FusePump(0)
			runtime.Gosched()
		}
	}()
	wg.Wait()

	if f.Fusion() == nil {
		t.Fatal("fused fleet has no aggregator")
	}
	st := f.Fusion().Stats()
	if st.EvidenceEvents == 0 {
		t.Error("no evidence reached the aggregator under churn")
	}

	for _, p := range f.Peers() {
		f.ClosePeer(p.Key())
	}
	f.Close()
	if n := f.Pool().Len(); n != 0 {
		t.Fatalf("shared pool leaks %d paths after fused churn teardown", n)
	}
	if st := f.Fusion().Stats(); st.Peers != 0 {
		t.Fatalf("aggregator still tracks %d peers after full teardown", st.Peers)
	}
}

// TestFleetFusionVerdictFanOut pins the happy path end to end: two
// peers bursting on the same failed links corroborate k-of-n, the pump
// publishes a verdict, and a third quiet (but provisioned) peer
// receives it as an external pre-trigger.
func TestFleetFusionVerdictFanOut(t *testing.T) {
	prefixes := make([]netaddr.Prefix, 4096)
	for i := range prefixes {
		prefixes[i] = netaddr.PrefixFor(8, i)
	}
	f := NewFleet(fusedFleetConfig(prefixes, func(err error) { t.Fatal(err) }))
	defer f.Close()

	quiet := f.Peer(PeerKey{AS: 2, BGPID: 99})
	for _, id := range []uint32{1, 2} {
		key := PeerKey{AS: 2, BGPID: id}
		p := f.Peer(key)
		// Withdrawals only: hold the burst open so the evidence stays live.
		var batch event.Batch
		for i, pfx := range prefixes {
			batch = append(batch, event.Withdraw(time.Duration(i)*time.Millisecond, pfx).WithPeer(key))
		}
		if !p.Enqueue(batch) {
			t.Fatal("enqueue refused")
		}
		p.Sync()
	}
	f.FusePump(0)

	v, ok := f.Fusion().Snapshot(0)
	if !ok || len(v.Links) == 0 {
		t.Fatalf("no fused verdict after two corroborating bursts (ok=%v)", ok)
	}
	if v.Supporters < 2 {
		t.Errorf("verdict supporters = %d, want >= 2", v.Supporters)
	}
	ext := false
	quiet.Do(func(e *swiftengine.Engine) { ext = e.ExportState().ExtActive })
	if !ext {
		t.Error("quiet peer did not receive the external verdict")
	}
}

// BenchmarkFleetApplyFused is BenchmarkFleetApplyParallel with every
// engine sharing one evidence aggregator: the same full burst cycles,
// plus Propose on each decision, burst lifecycle upcalls and background
// verdict publication. The spread against the plain benchmark bounds
// the fusion overhead on the hot path as engines scale 1→8.
func BenchmarkFleetApplyFused(b *testing.B) {
	prefixes := make([]netaddr.Prefix, 4096)
	for i := range prefixes {
		prefixes[i] = netaddr.PrefixFor(8, i)
	}
	for _, engines := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("engines=%d", engines), func(b *testing.B) {
			f := NewFleet(fusedFleetConfig(prefixes, func(err error) { b.Fatal(err) }))
			defer f.Close()

			const chunk = 512
			peers := make([]*FleetPeer, engines)
			chunks := make([][]event.Batch, engines)
			var span time.Duration
			for i := 0; i < engines; i++ {
				key := PeerKey{AS: 2, BGPID: uint32(i + 1)}
				peers[i] = f.Peer(key)
				cycle := fleetBurstCycle(key, prefixes)
				span = cycle[len(cycle)-1].At + time.Hour
				for lo := 0; lo < len(cycle); lo += chunk {
					hi := lo + chunk
					if hi > len(cycle) {
						hi = len(cycle)
					}
					chunks[i] = append(chunks[i], cycle[lo:hi:hi])
				}
			}
			events := 0
			for _, c := range chunks[0] {
				events += len(c)
			}

			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				var wg sync.WaitGroup
				for i := 0; i < engines; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						for _, c := range chunks[i] {
							if !peers[i].Enqueue(c) {
								b.Error("enqueue refused")
								return
							}
						}
						peers[i].Sync()
					}(i)
				}
				wg.Wait()
				b.StopTimer()
				for i := 0; i < engines; i++ {
					for _, c := range chunks[i] {
						shiftFleetBatch(c, span)
					}
				}
				b.StartTimer()
			}
			b.StopTimer()
			total := int64(b.N) * int64(events) * int64(engines)
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
