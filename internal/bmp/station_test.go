package bmp

import (
	"net"
	"sync"
	"testing"
	"time"

	"swift/internal/bgp"
	"swift/internal/bgpsim"
	"swift/internal/controller"
	"swift/internal/event"
	"swift/internal/inference"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
	"swift/internal/topology"
)

// fig1FleetConfig mirrors the single-session controller test's engine
// tuning so the Fig. 1 burst triggers within the replayed stream.
func fig1FleetConfig(key controller.PeerKey) swiftengine.Config {
	cfg := swiftengine.Config{LocalAS: 1, PrimaryNeighbor: 2}
	cfg.Inference = inference.Default()
	cfg.Inference.TriggerEvery = 250
	cfg.Inference.UseHistory = false
	cfg.Encoding.MinPrefixes = 100
	cfg.Burst.StartThreshold = 100
	return cfg
}

// bmpRouter scripts one monitored router's half of a BMP session into
// a byte stream.
type bmpRouter struct {
	t     *testing.T
	wire  []byte
	epoch time.Time
}

func (r *bmpRouter) send(m Message) {
	r.t.Helper()
	var err error
	r.wire, err = m.AppendWire(r.wire)
	if err != nil {
		r.t.Fatal(err)
	}
}

func (r *bmpRouter) header(key controller.PeerKey, ts time.Time) PeerHeader {
	h := PeerHeader{AS: key.AS, BGPID: key.BGPID}
	h.SetIPv4(0x0a000000 | key.BGPID)
	h.SetTimestamp(ts)
	return h
}

func (r *bmpRouter) peerUp(key controller.PeerKey) {
	r.send(&PeerUp{
		Peer:       r.header(key, r.epoch),
		LocalPort:  179,
		RemotePort: 40000 + uint16(key.BGPID),
		SentOpen:   &bgp.Open{AS: key.AS, HoldTime: 90, RouterID: key.BGPID},
		RecvOpen:   &bgp.Open{AS: 1, HoldTime: 90, RouterID: 1},
	})
}

func (r *bmpRouter) routeMonitoring(key controller.PeerKey, ts time.Time, u *bgp.Update) {
	r.send(&RouteMonitoring{Peer: r.header(key, ts), Update: u})
}

// table streams the initial Adj-RIB-In dump, one route per UPDATE,
// followed by End-of-RIB.
func (r *bmpRouter) table(key controller.PeerKey, routes map[netaddr.Prefix][]uint32) {
	for p, path := range routes {
		r.routeMonitoring(key, r.epoch, &bgp.Update{
			Attrs: bgp.Attrs{ASPath: path, HasNextHop: true, NextHop: 0x0a000001},
			NLRI:  []netaddr.Prefix{p},
		})
	}
	r.routeMonitoring(key, r.epoch, &bgp.Update{}) // End-of-RIB
}

// burst streams a replayed failure, packing consecutive withdrawals
// like a real speaker.
func (r *bmpRouter) burst(key controller.PeerKey, b *bgpsim.Burst) {
	var wd []netaddr.Prefix
	var wdAt time.Duration
	flush := func() {
		for _, u := range bgp.PackWithdrawals(wd) {
			r.routeMonitoring(key, r.epoch.Add(wdAt), u)
		}
		wd = wd[:0]
	}
	for _, ev := range b.Events {
		if ev.Kind == bgpsim.KindWithdraw {
			if len(wd) == 0 {
				wdAt = ev.At
			}
			wd = append(wd, ev.Prefix)
			if len(wd) >= 400 {
				flush()
			}
			continue
		}
		flush()
		r.routeMonitoring(key, r.epoch.Add(ev.At), &bgp.Update{
			Attrs: bgp.Attrs{ASPath: ev.Path, HasNextHop: true, NextHop: 0x0a000001},
			NLRI:  []netaddr.Prefix{ev.Prefix},
		})
	}
	flush()
}

// fig1Routes returns every origin's route as exported by neighbor nb
// to vantage AS 1, keyed by prefix.
func fig1Routes(t *testing.T, netw *bgpsim.Network, sols map[uint32]*bgpsim.OriginSolution, nb uint32) map[netaddr.Prefix][]uint32 {
	t.Helper()
	routes := make(map[netaddr.Prefix][]uint32)
	for origin := range netw.Origins {
		r, ok := sols[origin].ExportTo(netw.Graph, netw.Policy, nb, 1)
		if !ok {
			continue
		}
		for i := 0; i < netw.Origins[origin]; i++ {
			routes[netaddr.PrefixFor(origin, i)] = r.Path
		}
	}
	return routes
}

// TestStationMultiPeerBurst is the subsystem's end-to-end test: one
// synthetic router streams the Fig. 1 burst over BMP for two peers;
// the station demuxes the streams, provisions each peer's engine from
// its in-band table dump, and both engines must infer the failed link
// and install reroute rules while their streams are still draining.
func TestStationMultiPeerBurst(t *testing.T) {
	netw := bgpsim.Fig1Network(1000)
	sols := netw.Solve(netw.Graph)
	primary := fig1Routes(t, netw, sols, 2)

	var (
		mu         sync.Mutex
		lastByPeer = make(map[controller.PeerKey]swiftengine.Decision)
	)
	fleet := controller.NewFleet(controller.FleetConfig{
		Engine: fig1FleetConfig,
		Observer: controller.FleetObserver{OnDecision: func(peer controller.PeerKey, d swiftengine.Decision) {
			mu.Lock()
			lastByPeer[peer] = d
			mu.Unlock()
		}},
	})
	defer fleet.Close()

	keys := []controller.PeerKey{{AS: 2, BGPID: 21}, {AS: 2, BGPID: 22}}
	for _, key := range keys {
		// Alternates come from the other neighbors' tables, preloaded
		// as a deployment would from RIB snapshots.
		h := fleet.Peer(key)
		for _, nb := range []uint32{3, 4} {
			for p, path := range fig1Routes(t, netw, sols, nb) {
				h.LearnAlternate(nb, p, path)
			}
		}
	}

	st := NewStation(StationConfig{Sink: fleet, TableSettle: time.Minute})
	router, collector := net.Pipe()
	serveErr := make(chan error, 1)
	go func() { serveErr <- st.ServeConn(collector) }()

	r := &bmpRouter{t: t, epoch: time.Date(2016, 11, 5, 12, 0, 0, 0, time.UTC)}
	r.send(&Initiation{SysName: "fig1-router", SysDescr: "bmp e2e test"})
	for i, key := range keys {
		r.peerUp(key)
		r.table(key, primary)
		b, err := netw.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.DefaultTiming(int64(3+i)))
		if err != nil {
			t.Fatal(err)
		}
		r.burst(key, b)
	}
	r.send(&Termination{Reason: ReasonAdminClose})

	go func() {
		router.Write(r.wire)
		router.Close()
	}()

	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("ServeConn: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("ServeConn did not finish")
	}
	fleet.Sync()

	if got := fleet.Len(); got != len(keys) {
		t.Fatalf("fleet has %d peers, want %d", got, len(keys))
	}
	mu.Lock()
	defer mu.Unlock()
	for _, key := range keys {
		if _, ok := fleet.Lookup(key); !ok {
			t.Fatalf("peer %s missing from fleet", key)
		}
		last, ok := lastByPeer[key]
		if !ok {
			t.Fatalf("peer %s made no decisions", key)
		}
		found := false
		for _, l := range last.Result.Links {
			if l == topology.MakeLink(5, 6) {
				found = true
			}
		}
		if !found {
			t.Errorf("peer %s inferred %v, want link (5,6)", key, last.Result.Links)
		}
		if last.RulesInstalled == 0 {
			t.Errorf("peer %s installed no reroute rules", key)
		}
		if len(last.Predicted) == 0 {
			t.Errorf("peer %s predicted no prefixes", key)
		}
	}

	m := st.Metrics()
	if m.PeerUps != uint64(len(keys)) || m.RouteMonitoring == 0 {
		t.Errorf("station metrics = %+v", m)
	}
	fm := fleet.Metrics()
	if fm.Withdrawals == 0 || fm.Announcements == 0 || fm.Decisions == 0 {
		t.Errorf("fleet metrics = %+v", fm)
	}
	if fleet.Status() == "" {
		t.Error("empty fleet status")
	}
}

// TestStationServeTCP exercises the listener path end to end over a
// real socket: accept, initiate, peer up, a trickle of route
// monitoring, then a clean station Close.
func TestStationServeTCP(t *testing.T) {
	fleet := controller.NewFleet(controller.FleetConfig{Engine: fig1FleetConfig})
	defer fleet.Close()
	st := NewStation(StationConfig{Sink: fleet, TableSettle: time.Minute})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- st.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	key := controller.PeerKey{AS: 65010, BGPID: 9}
	r := &bmpRouter{t: t, epoch: time.Now()}
	r.send(&Initiation{SysName: "tcp-router"})
	r.peerUp(key)
	r.routeMonitoring(key, r.epoch, &bgp.Update{
		Attrs: bgp.Attrs{ASPath: []uint32{65010, 3356}, HasNextHop: true, NextHop: 1},
		NLRI:  []netaddr.Prefix{netaddr.MustParsePrefix("192.0.2.0/24")},
	})
	r.routeMonitoring(key, r.epoch, &bgp.Update{}) // End-of-RIB
	if _, err := conn.Write(r.wire); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(10 * time.Second)
	for {
		if h, ok := fleet.Lookup(key); ok && h.Provisioned() {
			break
		}
		select {
		case <-deadline:
			t.Fatal("peer never provisioned over TCP")
		case <-time.After(20 * time.Millisecond):
		}
	}
	conn.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestStationFlushesStalledBatch covers the mid-message stall: a full
// Route Monitoring message followed by a fragment of the next one
// leaves the read buffer non-empty (suppressing the buffer-drained
// flush) while the read loop blocks — the settle scanner must hand the
// stranded ops to the engine anyway.
func TestStationFlushesStalledBatch(t *testing.T) {
	fleet := controller.NewFleet(controller.FleetConfig{Engine: fig1FleetConfig})
	defer fleet.Close()
	key := controller.PeerKey{AS: 2, BGPID: 5}
	h := fleet.Peer(key)
	pfx := netaddr.MustParsePrefix("10.0.0.0/24")
	h.LearnPrimary(pfx, []uint32{2, 5, 6})
	if err := h.Provision(); err != nil {
		t.Fatal(err)
	}

	st := NewStation(StationConfig{Sink: fleet, TableSettle: 200 * time.Millisecond})
	router, collector := net.Pipe()
	defer router.Close()
	go st.ServeConn(collector)

	r := &bmpRouter{t: t, epoch: time.Now()}
	r.peerUp(key)
	r.routeMonitoring(key, time.Time{}, &bgp.Update{Withdrawn: []netaddr.Prefix{pfx}})
	stalled := append(r.wire, Version, 0, 0) // next message cut off mid-header
	if _, err := router.Write(stalled); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(10 * time.Second)
	for fleet.Metrics().Withdrawals == 0 {
		select {
		case <-deadline:
			t.Fatal("stranded withdrawal never reached the engine")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestStationSkipsUnknownType: a well-framed message of a type this
// codec does not know must be skipped, not kill the whole multi-peer
// connection.
func TestStationSkipsUnknownType(t *testing.T) {
	fleet := controller.NewFleet(controller.FleetConfig{Engine: fig1FleetConfig})
	defer fleet.Close()
	st := NewStation(StationConfig{Sink: fleet, TableSettle: time.Minute})
	router, collector := net.Pipe()
	serveErr := make(chan error, 1)
	go func() { serveErr <- st.ServeConn(collector) }()

	r := &bmpRouter{t: t, epoch: time.Now()}
	r.send(&Initiation{SysName: "future-router"})
	// A hypothetical post-RFC-7854 message type 9 with an 8-byte body.
	unknown := []byte{Version, 0, 0, 0, HeaderLen + 8, 9, 1, 2, 3, 4, 5, 6, 7, 8}
	r.wire = append(r.wire, unknown...)
	r.peerUp(controller.PeerKey{AS: 65010, BGPID: 3}) // must still arrive
	r.send(&Termination{Reason: ReasonAdminClose})
	go func() {
		router.Write(r.wire)
		router.Close()
	}()
	if err := <-serveErr; err != nil {
		t.Fatalf("ServeConn failed on an unknown message type: %v", err)
	}
	if m := st.Metrics(); m.PeerUps != 1 {
		t.Errorf("peer up after unknown type not processed: %+v", m)
	}
}

// TestStationReconnectKeepsClock: a router connection flap must not
// rewind a timestamped peer's engine clock — the epoch persists on the
// fleet peer across connections.
func TestStationReconnectKeepsClock(t *testing.T) {
	fleet := controller.NewFleet(controller.FleetConfig{Engine: fig1FleetConfig})
	defer fleet.Close()
	key := controller.PeerKey{AS: 2, BGPID: 8}
	h := fleet.Peer(key)
	pfx := netaddr.MustParsePrefix("10.0.0.0/24")
	h.LearnPrimary(pfx, []uint32{2, 5, 6})
	if err := h.Provision(); err != nil {
		t.Fatal(err)
	}
	st := NewStation(StationConfig{Sink: fleet, TableSettle: time.Minute})
	epoch := time.Date(2016, 11, 5, 12, 0, 0, 0, time.UTC)

	session := func(at time.Duration) {
		router, collector := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- st.ServeConn(collector) }()
		r := &bmpRouter{t: t, epoch: epoch}
		r.peerUp(key)
		r.routeMonitoring(key, epoch.Add(at), &bgp.Update{Withdrawn: []netaddr.Prefix{pfx}})
		go func() {
			router.Write(r.wire)
			router.Close()
		}()
		if err := <-done; err != nil {
			t.Fatalf("ServeConn: %v", err)
		}
		fleet.Sync()
	}

	// The epoch anchors at the first observed timestamp, so the first
	// observation lands at offset 0 …
	session(10 * time.Second)
	if got := h.LastAt(); got != 0 {
		t.Fatalf("first session LastAt = %v, want 0s", got)
	}
	// … and a message 10 s later on a NEW connection must land at 10 s
	// (a per-connection epoch would re-anchor and rewind it to 0).
	session(20 * time.Second)
	if got := h.LastAt(); got != 10*time.Second {
		t.Errorf("after reconnect LastAt = %v, want 10s (clock re-anchored)", got)
	}
}

// TestStationTicksFirstBurstPeer: a timestampless peer whose whole live
// stream arrives in its first read-burst sits at stream offset 0, and
// it must still be ticked once the stream goes quiet, or a burst opened
// there could only close on a later message.
func TestStationTicksFirstBurstPeer(t *testing.T) {
	var mu sync.Mutex
	var events []event.Event
	sink := event.SinkFunc(func(b event.Batch) error {
		mu.Lock()
		events = append(events, b...)
		mu.Unlock()
		return nil
	})
	st := NewStation(StationConfig{Sink: sink, TableSettle: 80 * time.Millisecond})
	router, collector := net.Pipe()
	defer router.Close()
	go st.ServeConn(collector)

	key := controller.PeerKey{AS: 2, BGPID: 6}
	r := &bmpRouter{t: t, epoch: time.Now()}
	r.peerUp(key)
	for i := range 3 {
		r.routeMonitoring(key, time.Time{}, &bgp.Update{Withdrawn: []netaddr.Prefix{netaddr.PrefixFor(8, i)}})
	}
	if _, err := router.Write(r.wire); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(10 * time.Second)
	for {
		mu.Lock()
		var withdrawals, ticks int
		for _, ev := range events {
			switch ev.Kind {
			case event.KindWithdraw:
				withdrawals++
				if ev.At != 0 {
					t.Errorf("withdrawal at %v, want 0 (one read-burst)", ev.At)
				}
			case event.KindTick:
				ticks++
				if ev.At <= 0 {
					t.Errorf("tick at %v, want past the burst", ev.At)
				}
			}
		}
		mu.Unlock()
		if withdrawals == 3 && ticks > 0 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("%d withdrawals, %d ticks: the quiet peer was never ticked", withdrawals, ticks)
		case <-time.After(20 * time.Millisecond):
		}
	}
}
