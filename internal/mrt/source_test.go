package mrt_test

import (
	"bytes"
	"io"
	"slices"
	"testing"
	"time"

	"swift/internal/bgp"
	"swift/internal/bgpsim"
	"swift/internal/event"
	"swift/internal/inference"
	"swift/internal/mrt"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
	"swift/internal/trace"
)

func sourceEngineConfig(vantage, neighbor uint32) swiftengine.Config {
	cfg := swiftengine.Config{LocalAS: vantage, PrimaryNeighbor: neighbor}
	cfg.Inference = inference.Default()
	cfg.Inference.TriggerEvery = 500
	cfg.Inference.UseHistory = false
	cfg.Burst.StartThreshold = 500
	return cfg
}

// materializeMRT renders one synthetic session as collector archives: a
// TABLE_DUMP_V2 RIB snapshot plus a BGP4MP update file carrying its
// bursts an hour apart.
func materializeMRT(t *testing.T, ds *trace.Dataset, s trace.Session, bursts []*bgpsim.Burst, epoch time.Time) (rib, updates []byte) {
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

// TestSourceBatchesMatchPerEventApply is the redesign's
// semantic-equivalence gate: replaying the same MRT archives through
// mrt.Source's batches and through one-event Apply calls must yield
// identical decisions — the event-stream API changes no paper
// semantics.
func TestSourceBatchesMatchPerEventApply(t *testing.T) {
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
	ribMRT, updMRT := materializeMRT(t, ds, sess, bursts, epoch)
	const finalTick = time.Hour

	// Path 1: mrt.Source feeding Engine.Apply through a SessionSink
	// (RIB loads via the Provisioner surface, updates stream as
	// batches).
	var got, want []swiftengine.Decision
	sourceCfg := sourceEngineConfig(sess.Vantage, sess.Neighbor)
	sourceCfg.Observer.OnDecision = func(d swiftengine.Decision) { got = append(got, d) }
	viaSource := swiftengine.New(sourceCfg)
	src := &mrt.Source{
		RIB:       bytes.NewReader(ribMRT),
		Updates:   bytes.NewReader(updMRT),
		Peer:      event.PeerKey{AS: sess.Neighbor, BGPID: sess.Neighbor},
		FinalTick: finalTick,
	}
	if err := src.Run(swiftengine.NewSessionSink(viaSource)); err != nil {
		t.Fatal(err)
	}
	if src.Routes == 0 || src.Events == 0 {
		t.Fatalf("source replayed %d routes, %d events", src.Routes, src.Events)
	}

	// Path 2: a per-message walk over the same bytes, one event per
	// Apply call.
	perEventCfg := sourceEngineConfig(sess.Vantage, sess.Neighbor)
	perEventCfg.Observer.OnDecision = func(d swiftengine.Decision) { want = append(want, d) }
	perEvent := swiftengine.New(perEventCfg)
	if err := mrt.WalkRIBIPv4(bytes.NewReader(ribMRT), func(rr *mrt.RIBRecord) error {
		for _, e := range rr.Entries {
			perEvent.LearnPrimary(rr.Prefix, e.Attrs.ASPath)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := perEvent.Provision(); err != nil {
		t.Fatal(err)
	}
	apply := func(ev event.Event) {
		if err := perEvent.Apply(event.Batch{ev}); err != nil {
			t.Fatal(err)
		}
	}
	r := mrt.NewReader(bytes.NewReader(updMRT))
	var dec bgp.UpdateDecoder
	var msgEpoch time.Time
	lastAt := time.Duration(-1)
	for {
		m, err := r.NextBGP4MP()
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
		if msgEpoch.IsZero() {
			msgEpoch = m.Timestamp
		}
		at := m.Timestamp.Sub(msgEpoch)
		for _, p := range dec.Withdrawn {
			apply(event.Withdraw(at, p))
		}
		if len(dec.NLRI) > 0 {
			path := append([]uint32(nil), dec.Attrs.ASPath...)
			for _, p := range dec.NLRI {
				apply(event.Announce(at, p, path))
			}
		}
		lastAt = at
	}
	apply(event.Tick(lastAt + finalTick))

	if len(want) == 0 {
		t.Fatalf("per-event path made no decisions (burst sizes %d); test is vacuous", bursts[0].Size)
	}
	if len(got) != len(want) {
		t.Fatalf("source path made %d decisions, per-event path %d", len(got), len(want))
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
		if !slices.Equal(g.Predicted, w.Predicted) {
			t.Errorf("decision %d: predicted %d prefixes, want the per-event path's %d", i, len(g.Predicted), len(w.Predicted))
		}
		if g.RulesInstalled != w.RulesInstalled {
			t.Errorf("decision %d: %d rules, want %d", i, g.RulesInstalled, w.RulesInstalled)
		}
	}
}

// TestSourcePeerAttribution checks the per-record fallback attribution
// and the explicit override.
func TestSourcePeerAttribution(t *testing.T) {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	p := netaddr.MustParsePrefix("192.0.2.0/24")
	ts := time.Date(2016, 11, 1, 0, 0, 0, 0, time.UTC)
	u := &bgp.Update{Attrs: bgp.Attrs{ASPath: []uint32{65010, 3356}, HasNextHop: true, NextHop: 1}, NLRI: []netaddr.Prefix{p}}
	if err := w.WriteBGP4MP(ts, 65010, 65001, 0x0a000001, 0x0a000002, u); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	collect := func(src *mrt.Source) event.Batch {
		var got event.Batch
		if err := src.Run(event.SinkFunc(func(b event.Batch) error {
			got = append(got, b...)
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		return got
	}

	got := collect(&mrt.Source{Updates: bytes.NewReader(wire)})
	if len(got) != 1 || got[0].Peer != (event.PeerKey{AS: 65010, BGPID: 0x0a000001}) {
		t.Errorf("record attribution = %+v", got)
	}
	override := event.PeerKey{AS: 7, BGPID: 9}
	got = collect(&mrt.Source{Updates: bytes.NewReader(wire), Peer: override})
	if len(got) != 1 || got[0].Peer != override {
		t.Errorf("override attribution = %+v", got)
	}
	if got[0].Kind != event.KindAnnounce || got[0].Prefix != p || got[0].At != 0 {
		t.Errorf("event = %+v", got[0])
	}
}
