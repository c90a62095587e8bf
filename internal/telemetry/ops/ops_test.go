package ops

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"swift/internal/controller"
	"swift/internal/event"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
	"swift/internal/telemetry"
)

// TestHandlerEndpoints drives the full ops mux over a live instrumented
// fleet: /metrics exposes the wired families, /healthz gates on the
// callback, /peers and /bursts serve coherent JSON.
func TestHandlerEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	ring := telemetry.NewBurstRing(8)
	ft := controller.NewFleetTelemetry(reg, ring)
	fleet := controller.NewFleet(ft.Instrument(controller.FleetConfig{
		Engine: func(key controller.PeerKey) swiftengine.Config {
			return swiftengine.Config{LocalAS: 1, PrimaryNeighbor: key.AS}
		},
	}))
	defer fleet.Close()

	h := NewHandler(Config{
		Registry: reg,
		Ring:     ring,
		Fleet:    fleet,
	})

	k := controller.PeerKey{AS: 2, BGPID: 1}
	if err := fleet.Apply(event.Batch{
		event.Announce(time.Second, netaddr.PrefixFor(8, 1), []uint32{2, 5, 6}).WithPeer(k),
	}); err != nil {
		t.Fatal(err)
	}
	fleet.Sync()
	ring.Start(k.String(), time.Now(), time.Second, 1500)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	if rec := get("/healthz"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("/healthz = %d %q", rec.Code, rec.Body.String())
	}

	rec := get("/metrics")
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`swift_peer_announcements_total{peer="AS2/00000001"} 1`,
		"# TYPE swift_fleet_events_total counter",
		"swift_fleet_peers 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	rec = get("/peers")
	var peers []controller.PeerStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &peers); err != nil {
		t.Fatalf("/peers: %v", err)
	}
	if len(peers) != 1 || peers[0].Peer != k.String() || peers[0].Announcements != 1 {
		t.Errorf("/peers = %+v", peers)
	}

	rec = get("/bursts")
	var bursts []telemetry.BurstRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &bursts); err != nil {
		t.Fatalf("/bursts: %v", err)
	}
	if len(bursts) != 1 || bursts[0].Peer != k.String() || !bursts[0].Open {
		t.Errorf("/bursts = %+v", bursts)
	}

	if rec := get("/debug/pprof/cmdline"); rec.Code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", rec.Code)
	}
	if rec := get("/nope"); rec.Code != 404 {
		t.Errorf("/nope = %d, want 404", rec.Code)
	}
}
