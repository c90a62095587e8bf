package controller

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"swift/internal/event"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
)

func testFleet() *Fleet {
	return NewFleet(FleetConfig{
		Engine: func(key PeerKey) swiftengine.Config {
			return swiftengine.Config{LocalAS: 1, PrimaryNeighbor: key.AS}
		},
	})
}

// TestFleetPeerIdentity checks get-or-create semantics across stripes
// under concurrent access: one engine per key, ever.
func TestFleetPeerIdentity(t *testing.T) {
	f := testFleet()
	defer f.Close()

	keys := make([]PeerKey, 64)
	for i := range keys {
		keys[i] = PeerKey{AS: uint32(i%8 + 2), BGPID: uint32(i)}
	}
	got := make([]*FleetPeer, len(keys)*8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, k := range keys {
				got[g*len(keys)+i] = f.Peer(k)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := range keys {
			if got[g*len(keys)+i] != got[i] {
				t.Fatalf("goroutine %d saw a different peer for %v", g, keys[i])
			}
		}
	}
	if f.Len() != len(keys) {
		t.Fatalf("fleet has %d peers, want %d", f.Len(), len(keys))
	}
	if len(f.Peers()) != len(keys) {
		t.Fatalf("Peers() returned %d, want %d", len(f.Peers()), len(keys))
	}
	if _, ok := f.Lookup(PeerKey{AS: 9999, BGPID: 1}); ok {
		t.Fatal("Lookup invented a peer")
	}
}

// TestFleetBatchDelivery drives observations through the per-peer
// goroutine and checks they land in the engine's RIB in order.
func TestFleetBatchDelivery(t *testing.T) {
	f := testFleet()
	defer f.Close()

	key := PeerKey{AS: 2, BGPID: 1}
	p := f.Peer(key)
	pfx := netaddr.MustParsePrefix("10.0.0.0/24")
	p.LearnPrimary(pfx, []uint32{2, 5, 7})
	if p.Provisioned() {
		t.Fatal("provisioned before Provision")
	}
	if err := p.Provision(); err != nil {
		t.Fatal(err)
	}
	if !p.Provisioned() {
		t.Fatal("not provisioned after Provision")
	}

	if !p.Enqueue(event.Batch{event.Announce(time.Second, pfx, []uint32{2, 6, 7})}) {
		t.Fatal("Enqueue refused on a live fleet")
	}
	p.Sync()
	p.Do(func(e *swiftengine.Engine) {
		if path := e.RIB().Path(pfx); len(path) == 0 || path[1] != 6 {
			t.Errorf("RIB path after announce = %v, want via 6", path)
		}
	})
	if !p.Enqueue(event.Batch{event.Withdraw(2*time.Second, pfx)}) {
		t.Fatal("Enqueue refused")
	}
	p.Sync()
	p.Do(func(e *swiftengine.Engine) {
		if path := e.RIB().Path(pfx); path != nil {
			t.Errorf("RIB path after withdraw = %v, want gone", path)
		}
	})
	if p.LastAt() != 2*time.Second {
		t.Errorf("LastAt = %v, want 2s", p.LastAt())
	}

	m := f.Metrics()
	if m.Peers != 1 || m.Ops != 2 || m.Withdrawals != 1 || m.Announcements != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.Decisions != 0 {
		t.Errorf("unexpected decisions: %d", m.Decisions)
	}
}

// TestFleetCloseSemantics: Close drains queues, stops goroutines, and
// later Enqueues report failure instead of panicking; engines remain
// inspectable.
func TestFleetCloseSemantics(t *testing.T) {
	f := testFleet()
	key := PeerKey{AS: 3, BGPID: 9}
	p := f.Peer(key)
	pfx := netaddr.MustParsePrefix("10.1.0.0/24")
	for i := 0; i < 100; i++ {
		if !p.Enqueue(event.Batch{event.Announce(time.Duration(i), pfx, []uint32{3, 7})}) {
			t.Fatal("Enqueue refused before Close")
		}
	}
	f.Close()
	f.Close() // idempotent
	if p.Enqueue(event.Batch{event.Withdraw(0, pfx)}) {
		t.Fatal("Enqueue accepted after Close")
	}
	if err := f.Apply(event.Batch{event.Withdraw(0, pfx)}); err != ErrClosed {
		t.Fatalf("Apply after Close = %v, want ErrClosed", err)
	}
	if got := f.Metrics().Announcements; got != 100 {
		t.Errorf("announcements = %d, want 100 (queue must drain before close)", got)
	}
	p.Do(func(e *swiftengine.Engine) {
		if e.RIB().Len() != 1 {
			t.Errorf("engine RIB len = %d, want 1", e.RIB().Len())
		}
	})
}

// TestFleetPeerChurnUnderLoad hammers the teardown path: feeder
// goroutines stream batches at a small key space while a churner
// connects and disconnects those same peers. The lock-free
// Enqueue/close handshake must neither lose a session's goroutine, nor
// deliver to a dead engine, nor leak pool references — after the dust
// settles and every peer is closed, the shared pool drains to empty.
// Run with -race: this is the close-vs-send regression test.
func TestFleetPeerChurnUnderLoad(t *testing.T) {
	f := testFleet()

	const (
		feeders = 4
		keys    = 8
		rounds  = 400
	)
	key := func(i int) PeerKey { return PeerKey{AS: uint32(2 + i%keys), BGPID: uint32(i % keys)} }

	var wg sync.WaitGroup
	for g := 0; g < feeders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			path := []uint32{uint32(2 + g), 50, 60}
			for i := 0; i < rounds; i++ {
				k := key(g + i)
				b := event.Batch{
					event.Announce(time.Duration(i)*time.Millisecond, netaddr.PrefixFor(8, i%64), path).WithPeer(k),
					event.Withdraw(time.Duration(i)*time.Millisecond+time.Microsecond, netaddr.PrefixFor(8, i%64)).WithPeer(k),
				}
				if err := f.Apply(b); err != nil {
					t.Errorf("Apply: %v", err)
					return
				}
				// Direct peer enqueue races the churner too; a false
				// return (peer torn down mid-flight) is the documented
				// contract, not an error.
				p := f.Peer(key(g + i + 1))
				p.Enqueue(event.Batch{event.Tick(time.Duration(i) * time.Millisecond).WithPeer(p.Key())})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			f.ClosePeer(key(i))
			if i%16 == 0 {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()

	// Tear every surviving peer down; the shared pool must drain (the
	// engines' tables and tracker pins all release).
	for _, p := range f.Peers() {
		f.ClosePeer(p.Key())
	}
	f.Close()
	if n := f.Pool().Len(); n != 0 {
		t.Fatalf("shared pool leaks %d paths after full churn teardown", n)
	}
}

// TestFleetClosePeerReleasesEngine pins the teardown contract: a closed
// peer's engine returns its RIB references to the shared pool, and
// later traffic for the key builds a fresh session.
func TestFleetClosePeerReleasesEngine(t *testing.T) {
	f := testFleet()
	defer f.Close()

	k := PeerKey{AS: 2, BGPID: 7}
	p := f.Peer(k)
	p.LearnPrimary(netaddr.PrefixFor(8, 1), []uint32{2, 5, 6})
	p.LearnAlternate(3, netaddr.PrefixFor(8, 1), []uint32{3, 6})
	if n := f.Pool().Len(); n != 2 {
		t.Fatalf("pool = %d, want 2", n)
	}
	if !f.ClosePeer(k) {
		t.Fatal("ClosePeer found no peer")
	}
	if f.ClosePeer(k) {
		t.Fatal("double ClosePeer claimed a peer")
	}
	// Teardown is async on the delivery goroutine; closing the fleet's
	// remaining work isn't needed — poll briefly for the drain.
	deadline := time.Now().Add(5 * time.Second)
	for f.Pool().Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool still holds %d paths after ClosePeer", f.Pool().Len())
		}
		runtime.Gosched()
	}
	// Fresh traffic re-creates the session.
	p2 := f.Peer(k)
	if p2 == p {
		t.Fatal("ClosePeer left the dead peer resolvable")
	}
	if !p2.Enqueue(event.Batch{event.Tick(time.Second).WithPeer(k)}) {
		t.Fatal("fresh peer refused delivery")
	}
}
