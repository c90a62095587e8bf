package controller

import (
	"sync"
	"testing"
	"time"

	"swift/internal/event"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
)

// TestFleetApplyDemux routes a mixed-peer batch through the Sink
// surface and checks each peer got exactly its own events, in order.
func TestFleetApplyDemux(t *testing.T) {
	f := testFleet()
	defer f.Close()

	k1 := PeerKey{AS: 2, BGPID: 1}
	k2 := PeerKey{AS: 3, BGPID: 1}
	p1 := netaddr.MustParsePrefix("10.0.0.0/24")
	p2 := netaddr.MustParsePrefix("10.0.1.0/24")
	b := event.Batch{
		event.Announce(time.Second, p1, []uint32{2, 5}).WithPeer(k1),
		event.Announce(time.Second, p2, []uint32{3, 5}).WithPeer(k2),
		event.Withdraw(2*time.Second, p1).WithPeer(k1),
	}
	if err := f.Apply(b); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	if f.Len() != 2 {
		t.Fatalf("fleet has %d peers, want 2", f.Len())
	}
	h1, _ := f.Lookup(k1)
	h1.Do(func(e *swiftengine.Engine) {
		if e.RIB().Path(p1) != nil {
			t.Error("peer 1: withdraw did not follow announce")
		}
	})
	h2, _ := f.Lookup(k2)
	h2.Do(func(e *swiftengine.Engine) {
		if e.RIB().Path(p2) == nil {
			t.Error("peer 2: announce missing")
		}
		if e.RIB().Path(p1) != nil {
			t.Error("peer 2: received peer 1's event")
		}
	})
	m := f.Metrics()
	if m.Withdrawals != 1 || m.Announcements != 2 {
		t.Errorf("metrics = %+v", m)
	}

	// The PeerSink fast path binds a single peer's queue.
	bound := f.PeerSink(k1)
	if err := bound.Apply(event.Batch{event.Announce(3*time.Second, p1, []uint32{2, 6})}); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	h1.Do(func(e *swiftengine.Engine) {
		if e.RIB().Path(p1) == nil {
			t.Error("bound sink event missing")
		}
	})
}

// TestFleetObserverAndPushMetrics drives one peer through a full burst
// and asserts the peer-attributed hooks fire and the aggregate metrics
// are push-fed (no engine walking).
func TestFleetObserverAndPushMetrics(t *testing.T) {
	key := PeerKey{AS: 2, BGPID: 7}
	var mu sync.Mutex
	var burstStarts, decisions, burstEnds, provisions int
	f := NewFleet(FleetConfig{
		Engine: func(k PeerKey) swiftengine.Config {
			cfg := swiftengine.Config{LocalAS: 1, PrimaryNeighbor: k.AS}
			cfg.Inference.TriggerEvery = 100
			cfg.Inference.UseHistory = false
			cfg.Burst.StartThreshold = 100
			cfg.Burst.StopThreshold = 9
			cfg.Encoding.MinPrefixes = 50
			return cfg
		},
		Observer: FleetObserver{
			OnBurstStart: func(k PeerKey, at time.Duration, withdrawals int) {
				mu.Lock()
				defer mu.Unlock()
				if k != key {
					t.Errorf("burst start attributed to %v", k)
				}
				burstStarts++
			},
			OnDecision: func(k PeerKey, d swiftengine.Decision) {
				mu.Lock()
				defer mu.Unlock()
				decisions++
			},
			OnBurstEnd: func(k PeerKey, at time.Duration, received int) {
				mu.Lock()
				defer mu.Unlock()
				burstEnds++
			},
			OnProvision: func(k PeerKey, info swiftengine.ProvisionInfo) {
				mu.Lock()
				defer mu.Unlock()
				provisions++
			},
		},
	})
	defer f.Close()

	// Table transfer through the Provisioner surface.
	var prefixes []netaddr.Prefix
	for i := 0; i < 500; i++ {
		p := netaddr.PrefixFor(8, i)
		prefixes = append(prefixes, p)
		f.Learn(key, p, []uint32{2, 5, 6})
	}
	h, _ := f.Lookup(key)
	h.LearnAlternate(3, prefixes[0], []uint32{3, 6})
	for _, p := range prefixes {
		h.LearnAlternate(3, p, []uint32{3, 6})
	}
	if err := f.Provision(key); err != nil {
		t.Fatal(err)
	}

	// Burst: withdraw 400, then a far-future tick closes it.
	b := make(event.Batch, 0, 401)
	for i, p := range prefixes[:400] {
		b = append(b, event.Withdraw(time.Duration(i)*time.Millisecond, p).WithPeer(key))
	}
	b = append(b, event.Tick(time.Hour).WithPeer(key))
	if err := f.Apply(b); err != nil {
		t.Fatal(err)
	}
	f.Sync()

	mu.Lock()
	defer mu.Unlock()
	if burstStarts != 1 || burstEnds != 1 {
		t.Errorf("burst starts=%d ends=%d, want 1/1", burstStarts, burstEnds)
	}
	if decisions == 0 {
		t.Fatal("no decisions observed")
	}
	// Initial provision + the burst-end fallback re-provision.
	if provisions != 2 {
		t.Errorf("provisions observed = %d, want 2", provisions)
	}
	m := f.Metrics()
	if m.Decisions != decisions {
		t.Errorf("push-fed decision count = %d, observer saw %d", m.Decisions, decisions)
	}
	if m.RulesInstalled == 0 {
		t.Error("push-fed rule count is zero")
	}
	if m.Rerouting != 0 {
		t.Errorf("rerouting gauge = %d after fallback, want 0", m.Rerouting)
	}
	engineDecisions := 0
	for _, p := range f.Peers() {
		p.Do(func(e *swiftengine.Engine) { engineDecisions += e.NumDecisions() })
	}
	if engineDecisions != decisions {
		t.Errorf("engines count %d decisions, observer saw %d", engineDecisions, decisions)
	}
}
