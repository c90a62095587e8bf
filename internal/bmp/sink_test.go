package bmp

import (
	"net"
	"testing"
	"time"

	"swift/internal/bgp"
	"swift/internal/event"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
)

// TestStationFeedsSessionSink swaps the fleet for a single engine
// behind a SessionSink: the same BMP byte stream (table dump,
// End-of-RIB, live withdrawals) must provision the engine through the
// Provisioner surface and drive its burst machinery — the Sink
// interchangeability the redesign promises.
func TestStationFeedsSessionSink(t *testing.T) {
	cfg := swiftengine.Config{LocalAS: 1, PrimaryNeighbor: 2}
	cfg.Inference.TriggerEvery = 100
	cfg.Inference.UseHistory = false
	cfg.Burst.StartThreshold = 100
	cfg.Burst.StopThreshold = 9
	cfg.Encoding.MinPrefixes = 50
	engine := swiftengine.New(cfg)
	sink := swiftengine.NewSessionSink(engine)
	for i := 0; i < 500; i++ {
		engine.LearnAlternate(3, netaddr.PrefixFor(8, i), []uint32{3, 6})
	}
	st := NewStation(StationConfig{Sink: sink, TableSettle: time.Minute})

	key := event.PeerKey{AS: 2, BGPID: 9}
	epoch := time.Date(2016, 11, 1, 0, 0, 0, 0, time.UTC)
	router := &bmpRouter{t: t, epoch: epoch}
	router.send(&Initiation{SysName: "session-sink"})
	router.peerUp(key)
	// Table dump + End-of-RIB: loads through the SessionSink's
	// Provisioner surface and provisions the engine.
	path := []uint32{2, 5, 6}
	for i := 0; i < 500; i++ {
		router.routeMonitoring(key, epoch, &bgp.Update{
			Attrs: bgp.Attrs{ASPath: path, HasNextHop: true, NextHop: 2},
			NLRI:  []netaddr.Prefix{netaddr.PrefixFor(8, i)},
		})
	}
	router.routeMonitoring(key, epoch, &bgp.Update{}) // End-of-RIB
	// Live burst: 400 timestamped withdrawals.
	var wd []netaddr.Prefix
	for i := 0; i < 400; i++ {
		wd = append(wd, netaddr.PrefixFor(8, i))
	}
	for _, u := range bgp.PackWithdrawals(wd) {
		router.routeMonitoring(key, epoch.Add(time.Second), u)
	}
	router.send(&Termination{Reason: ReasonAdminClose})

	conn, collector := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- st.ServeConn(collector) }()
	go func() {
		conn.Write(router.wire)
		conn.Close()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeConn: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("ServeConn did not finish")
	}

	sink.Do(func(e *swiftengine.Engine) {
		if e.Scheme() == nil {
			t.Fatal("engine not provisioned from the in-band table dump")
		}
		if e.RIB().Len() != 100 { // 500 learned - 400 withdrawn
			t.Errorf("RIB has %d routes after the burst, want 100", e.RIB().Len())
		}
		if e.NumDecisions() == 0 {
			t.Error("burst made no decisions through the session sink")
		}
	})
}
