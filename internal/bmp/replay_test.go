package bmp

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"swift/internal/bgp"
	"swift/internal/bgpsim"
	"swift/internal/controller"
	"swift/internal/event"
	"swift/internal/inference"
	"swift/internal/mrt"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
	"swift/internal/trace"
)

// replayEngineConfig is shared by both replay paths so any divergence
// comes from the transport, not the tuning.
func replayEngineConfig(vantage, neighbor uint32) swiftengine.Config {
	cfg := swiftengine.Config{LocalAS: vantage, PrimaryNeighbor: neighbor}
	cfg.Inference = inference.Default()
	cfg.Inference.TriggerEvery = 500
	cfg.Inference.UseHistory = false
	cfg.Burst.StartThreshold = 500
	return cfg
}

// traceToMRT materializes one synthetic session as collector archives:
// a TABLE_DUMP_V2 RIB snapshot and a BGP4MP update file carrying its
// bursts, spaced an hour apart.
func traceToMRT(t *testing.T, ds *trace.Dataset, s trace.Session, bursts []*bgpsim.Burst, epoch time.Time) (rib, updates []byte) {
	t.Helper()
	var ribBuf bytes.Buffer
	w := mrt.NewWriter(&ribBuf)
	if err := w.WritePeerIndexTable(epoch, s.Vantage, []mrt.PeerEntry{{ID: s.Neighbor, IP: 0x0a000001, AS: s.Neighbor}}); err != nil {
		t.Fatal(err)
	}
	seq := uint32(0)
	for origin, path := range ds.SessionRIB(s) {
		for i := 0; i < ds.Net.Origins[origin]; i++ {
			rec := &mrt.RIBRecord{
				Sequence: seq,
				Prefix:   netaddr.PrefixFor(origin, i),
				Entries: []mrt.RIBEntry{{
					Originated: epoch.Add(-24 * time.Hour),
					Attrs:      bgp.Attrs{ASPath: path, HasNextHop: true, NextHop: 0x0a000001},
				}},
			}
			seq++
			if err := w.WriteRIBIPv4(epoch, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var updBuf bytes.Buffer
	uw := mrt.NewWriter(&updBuf)
	writeMsg := func(ts time.Time, u *bgp.Update) {
		if err := uw.WriteBGP4MP(ts, s.Neighbor, s.Vantage, 0x0a000001, 0x0a000002, u); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range bursts {
		at := epoch.Add(time.Duration(i+1) * time.Hour)
		var wd []netaddr.Prefix
		var wdAt time.Time
		flush := func() {
			for _, u := range bgp.PackWithdrawals(wd) {
				writeMsg(wdAt, u)
			}
			wd = wd[:0]
		}
		for _, ev := range b.Events {
			ts := at.Add(ev.At)
			if ev.Kind == bgpsim.KindWithdraw {
				if len(wd) == 0 {
					wdAt = ts
				}
				wd = append(wd, ev.Prefix)
				if len(wd) >= 400 {
					flush()
				}
				continue
			}
			flush()
			writeMsg(ts, &bgp.Update{
				Attrs: bgp.Attrs{ASPath: ev.Path, HasNextHop: true, NextHop: 0x0a000001},
				NLRI:  []netaddr.Prefix{ev.Prefix},
			})
		}
		flush()
	}
	if err := uw.Flush(); err != nil {
		t.Fatal(err)
	}
	return ribBuf.Bytes(), updBuf.Bytes()
}

// TestMRTReplayMatchesDirect is the transport-equivalence test: a
// TABLE_DUMP_V2 snapshot plus a BGP4MP update archive replayed through
// the BMP Station path must leave the per-peer engine with exactly the
// decisions direct one-event Apply calls produce from the same bytes.
func TestMRTReplayMatchesDirect(t *testing.T) {
	ds := trace.Generate(trace.Config{
		NumASes:           250,
		AvgDegree:         7,
		Sessions:          50,
		Days:              30,
		Failures:          50,
		MaxPrefixes:       6000,
		PopularASes:       10,
		ASFailureFraction: 0.15,
		Timing:            bgpsim.DefaultTiming(11),
		Seed:              11,
	})
	var sess trace.Session
	var bursts []*bgpsim.Burst
	for _, st := range ds.Census(1500) {
		bs := ds.BurstsAt(st.Session, 1500)
		if len(bs) > 0 {
			sess, bursts = st.Session, bs
			break
		}
	}
	if len(bursts) == 0 {
		t.Skip("no bursty session at this scale")
	}
	if len(bursts) > 2 {
		bursts = bursts[:2] // two bursts exercise burst-end + re-detection
	}
	epoch := time.Date(2016, 11, 1, 0, 0, 0, 0, time.UTC)
	ribMRT, updMRT := traceToMRT(t, ds, sess, bursts, epoch)

	// Path 1: direct one-event Apply calls, exactly what the MRT bytes
	// say.
	direct := swiftengine.New(replayEngineConfig(sess.Vantage, sess.Neighbor))
	apply := func(ev event.Event) {
		if err := direct.Apply(event.Batch{ev}); err != nil {
			t.Fatal(err)
		}
	}
	r := mrt.NewReader(bytes.NewReader(ribMRT))
	for {
		rec, err := r.Next()
		if err != nil {
			break
		}
		if rec.Type != mrt.TypeTableDumpV2 || rec.Subtype != mrt.SubtypeRIBIPv4Unicast {
			continue
		}
		rr, err := mrt.DecodeRIBIPv4(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range rr.Entries {
			direct.LearnPrimary(rr.Prefix, e.Attrs.ASPath)
		}
	}
	if err := direct.Provision(); err != nil {
		t.Fatal(err)
	}
	ur := mrt.NewReader(bytes.NewReader(updMRT))
	var dec bgp.UpdateDecoder
	for {
		m, err := ur.NextBGP4MP()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if m.Header.Type != bgp.TypeUpdate {
			continue
		}
		if err := dec.Decode(m.Body); err != nil {
			t.Fatal(err)
		}
		at := m.Timestamp.Sub(epoch)
		for _, p := range dec.Withdrawn {
			apply(event.Withdraw(at, p))
		}
		if len(dec.NLRI) > 0 {
			path := append([]uint32(nil), dec.Attrs.ASPath...)
			for _, p := range dec.NLRI {
				apply(event.Announce(at, p, path))
			}
		}
	}

	// Path 2: the same MRT bytes replayed as a BMP router into a
	// station (table dump + End-of-RIB + timestamped updates).
	fleet := controller.NewFleet(controller.FleetConfig{
		Engine: func(controller.PeerKey) swiftengine.Config {
			return replayEngineConfig(sess.Vantage, sess.Neighbor)
		},
	})
	defer fleet.Close()
	st := NewStation(StationConfig{Sink: fleet, TableSettle: time.Hour})
	key := controller.PeerKey{AS: sess.Neighbor, BGPID: sess.Neighbor}

	router := &bmpRouter{t: t, epoch: epoch}
	router.send(&Initiation{SysName: "mrt-replay"})
	router.peerUp(key)
	rr := mrt.NewReader(bytes.NewReader(ribMRT))
	for {
		rec, err := rr.Next()
		if err != nil {
			break
		}
		if rec.Type != mrt.TypeTableDumpV2 || rec.Subtype != mrt.SubtypeRIBIPv4Unicast {
			continue
		}
		rib, err := mrt.DecodeRIBIPv4(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range rib.Entries {
			router.routeMonitoring(key, epoch, &bgp.Update{
				Attrs: e.Attrs,
				NLRI:  []netaddr.Prefix{rib.Prefix},
			})
		}
	}
	router.routeMonitoring(key, epoch, &bgp.Update{}) // End-of-RIB
	ur2 := mrt.NewReader(bytes.NewReader(updMRT))
	for {
		m, err := ur2.NextBGP4MP()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var u bgp.Update
		if err := u.Decode(m.Body); err != nil {
			t.Fatal(err)
		}
		router.routeMonitoring(key, m.Timestamp, &u)
	}
	router.send(&Termination{Reason: ReasonAdminClose})

	conn, collector := net.Pipe()
	serveErr := make(chan error, 1)
	go func() { serveErr <- st.ServeConn(collector) }()
	go func() {
		conn.Write(router.wire)
		conn.Close()
	}()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("ServeConn: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("ServeConn did not finish")
	}
	fleet.Sync()

	h, ok := fleet.Lookup(key)
	if !ok {
		t.Fatal("replay peer missing from fleet")
	}
	got := h.Decisions()
	want := direct.Decisions()
	if len(want) == 0 {
		t.Fatalf("direct path made no decisions (burst sizes %d); test is vacuous", bursts[0].Size)
	}
	if len(got) != len(want) {
		t.Fatalf("station path made %d decisions, direct path %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.At != w.At {
			t.Errorf("decision %d: at %v vs %v", i, g.At, w.At)
		}
		if len(g.Result.Links) != len(w.Result.Links) {
			t.Fatalf("decision %d: links %v vs %v", i, g.Result.Links, w.Result.Links)
		}
		for j := range w.Result.Links {
			if g.Result.Links[j] != w.Result.Links[j] {
				t.Errorf("decision %d: link %d = %v, want %v", i, j, g.Result.Links[j], w.Result.Links[j])
			}
		}
		if len(g.Predicted) != len(w.Predicted) {
			t.Errorf("decision %d: predicted %d prefixes, want %d", i, len(g.Predicted), len(w.Predicted))
		}
		if g.RulesInstalled != w.RulesInstalled {
			t.Errorf("decision %d: %d rules, want %d", i, g.RulesInstalled, w.RulesInstalled)
		}
	}
}
