package controller

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"swift/internal/event"
	"swift/internal/netaddr"
	"swift/internal/snapshot"
	swiftengine "swift/internal/swift"
)

// snapshotTestConfig is the fleet configuration both sides of a
// snapshot round trip share: the restore path rebuilds engines through
// the same factory, so it must be a pure function of the peer key.
func snapshotTestConfig(t testing.TB, prefixes []netaddr.Prefix) FleetConfig {
	return FleetConfig{
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
				t.Errorf("provision: %v", err)
			}
		},
	}
}

func snapshotBytes(t *testing.T, f *Fleet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.Bytes()
}

type peerView struct {
	fib      string
	routes   int
	reroute  bool
	decided  int
	deferred int
}

func viewOf(p *FleetPeer) peerView {
	var v peerView
	p.Do(func(e *swiftengine.Engine) {
		v = peerView{
			fib:      e.FIB().Dump(),
			routes:   e.RIB().Len(),
			reroute:  e.RerouteActive(),
			decided:  e.NumDecisions(),
			deferred: e.Deferred(),
		}
	})
	return v
}

// TestFleetSnapshotRoundTrip is the steady-state warm-restart property
// test: snapshot a provisioned, burst-experienced fleet, restore it,
// and demand (1) the snapshot itself is deterministic, (2) the restored
// fleet re-snapshots byte-identically, (3) every restored FIB dump is
// byte-identical to its live original, and (4) a fresh burst replayed
// into both fleets drives them to identical decisions and FIBs — the
// restored detector histories and thresholds behave exactly like the
// live ones.
func TestFleetSnapshotRoundTrip(t *testing.T) {
	prefixes := make([]netaddr.Prefix, 4096)
	for i := range prefixes {
		prefixes[i] = netaddr.PrefixFor(8, i)
	}
	live := NewFleet(snapshotTestConfig(t, prefixes))
	defer live.Close()

	keySteady := PeerKey{AS: 2, BGPID: 1}
	keyCycled := PeerKey{AS: 2, BGPID: 2}
	live.Peer(keySteady)

	// keyCycled works one full burst cycle: detect, infer, reroute,
	// reconverge, fall back. Its snapshot carries a non-empty burst
	// history, accumulated FIB write accounting and a fallback-compiled
	// scheme.
	cycle := fleetBurstCycle(keyCycled, prefixes)
	span := cycle[len(cycle)-1].At + time.Hour
	if !live.Peer(keyCycled).Enqueue(cycle) {
		t.Fatal("enqueue refused")
	}
	live.Sync()

	snap1 := snapshotBytes(t, live)
	snap2 := snapshotBytes(t, live)
	if !bytes.Equal(snap1, snap2) {
		t.Fatal("two snapshots of an idle fleet differ")
	}

	restored, err := RestoreFleet(bytes.NewReader(snap1), snapshotTestConfig(t, prefixes))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer restored.Close()
	if got, want := restored.Len(), live.Len(); got != want {
		t.Fatalf("restored %d peers, want %d", got, want)
	}

	resnap := snapshotBytes(t, restored)
	if !bytes.Equal(snap1, resnap) {
		t.Fatalf("restored fleet re-snapshots differently: %d vs %d bytes", len(resnap), len(snap1))
	}

	for _, key := range []PeerKey{keySteady, keyCycled} {
		lv, rv := viewOf(live.Peer(key)), viewOf(restored.Peer(key))
		if lv.fib != rv.fib {
			t.Errorf("peer %s: restored FIB dump differs from live", key)
		}
		if lv.routes != rv.routes {
			t.Errorf("peer %s: routes %d live, %d restored", key, lv.routes, rv.routes)
		}
		if lv.reroute != rv.reroute {
			t.Errorf("peer %s: reroute active %v live, %v restored", key, lv.reroute, rv.reroute)
		}
	}

	// Fresh burst cycles on both peers, replayed into both fleets. The
	// decision count is not part of the snapshot, so compare deltas.
	before := map[PeerKey][2]int{}
	for _, key := range []PeerKey{keySteady, keyCycled} {
		before[key] = [2]int{viewOf(live.Peer(key)).decided, viewOf(restored.Peer(key)).decided}
	}
	for _, key := range []PeerKey{keySteady, keyCycled} {
		replay := fleetBurstCycle(key, prefixes)
		shiftFleetBatch(replay, span)
		replayCopy := append(event.Batch(nil), replay...)
		if !live.Peer(key).Enqueue(replay) {
			t.Fatal("enqueue refused")
		}
		if !restored.Peer(key).Enqueue(replayCopy) {
			t.Fatal("enqueue refused")
		}
	}
	live.Sync()
	restored.Sync()
	for _, key := range []PeerKey{keySteady, keyCycled} {
		lv, rv := viewOf(live.Peer(key)), viewOf(restored.Peer(key))
		ld, rd := lv.decided-before[key][0], rv.decided-before[key][1]
		if ld != rd {
			t.Errorf("peer %s: replay made %d decisions live, %d restored", key, ld, rd)
		}
		if ld == 0 {
			t.Errorf("peer %s: replay burst made no decisions; the workload is vacuous", key)
		}
		if lv.fib != rv.fib {
			t.Errorf("peer %s: FIB dumps diverged after replay", key)
		}
		if lv.reroute != rv.reroute {
			t.Errorf("peer %s: reroute state diverged after replay: %v vs %v", key, lv.reroute, rv.reroute)
		}
	}
}

// midBurst is the mid-burst fixture: a one-peer fleet over n prefixes
// whose withdrawal prologue — the first 3000/4096 of them, 1 ms apart,
// as fleetBurstCycle begins — has opened a burst and installed reroute
// rules. At n = 4096 its config is snapshotTestConfig's; smaller n
// scales the thresholds down with the prologue. It returns the fleet,
// the config a restore must use, the peer and the prefixes.
func midBurst(t testing.TB, n int) (*Fleet, FleetConfig, PeerKey, []netaddr.Prefix) {
	prefixes := make([]netaddr.Prefix, n)
	for i := range prefixes {
		prefixes[i] = netaddr.PrefixFor(8, i)
	}
	cfg := snapshotTestConfig(t, prefixes)
	engine := cfg.Engine
	cfg.Engine = func(key PeerKey) swiftengine.Config {
		c := engine(key)
		c.Inference.TriggerEvery = c.Inference.TriggerEvery * n / 4096
		c.Burst.StartThreshold = c.Burst.StartThreshold * n / 4096
		c.Encoding.MinPrefixes = c.Encoding.MinPrefixes * n / 4096
		return c
	}
	live := NewFleet(cfg)
	key := PeerKey{AS: 2, BGPID: 7}
	head := make(event.Batch, 3000*n/4096)
	for i := range head {
		head[i] = event.Withdraw(time.Duration(i+1)*time.Millisecond, prefixes[i]).WithPeer(key)
	}
	if !live.Peer(key).Enqueue(head) {
		t.Fatal("enqueue refused")
	}
	live.Sync()
	if v := viewOf(live.Peer(key)); !v.reroute || v.decided == 0 {
		t.Fatalf("withdrawal prologue did not trigger a reroute (decisions=%d, active=%v)", v.decided, v.reroute)
	}
	return live, cfg, key, prefixes
}

// TestFleetSnapshotMidBurst pins the mid-burst restore contract: a
// fleet checkpointed with a burst open and reroute rules installed
// restores with the identical FIB (protection stays up across the
// restart), and replaying the burst's tail — reconvergence and the
// closing tick — drives live and restored to the same final state. The
// inference tracker's in-flight evidence is deliberately not captured,
// so the equivalence here is exactly the documented degradation: no
// *new* trigger fires from pre-snapshot evidence, everything else
// matches.
func TestFleetSnapshotMidBurst(t *testing.T) {
	live, cfg, key, prefixes := midBurst(t, 4096)
	defer live.Close()
	tail := fleetBurstCycle(key, prefixes)[3000:]
	lv := viewOf(live.Peer(key))

	snap := snapshotBytes(t, live)
	restored, err := RestoreFleet(bytes.NewReader(snap), cfg)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer restored.Close()

	rv := viewOf(restored.Peer(key))
	if rv.fib != lv.fib {
		t.Fatal("mid-burst restored FIB dump differs from live: reroute protection dropped")
	}
	if !rv.reroute {
		t.Fatal("mid-burst restore lost the reroute-active flag")
	}

	tailCopy := append(event.Batch(nil), tail...)
	if !live.Peer(key).Enqueue(tail) {
		t.Fatal("enqueue refused")
	}
	if !restored.Peer(key).Enqueue(tailCopy) {
		t.Fatal("enqueue refused")
	}
	live.Sync()
	restored.Sync()
	lv2, rv2 := viewOf(live.Peer(key)), viewOf(restored.Peer(key))
	if lv2.fib != rv2.fib {
		t.Error("FIB dumps diverged after replaying the burst tail")
	}
	if lv2.reroute || rv2.reroute {
		t.Errorf("burst tail should have fallen back on both sides (live=%v restored=%v)", lv2.reroute, rv2.reroute)
	}
	if ld, rd := lv2.decided-lv.decided, rv2.decided-rv.decided; ld != rd {
		t.Errorf("burst tail made %d decisions live, %d restored", ld, rd)
	}
}

// TestFleetSnapshotRefusals pins the error surface: snapshotting a
// closed fleet refuses, restoring garbage refuses, and a truncated
// snapshot fails the checksum rather than restoring a partial fleet.
func TestFleetSnapshotRefusals(t *testing.T) {
	prefixes := make([]netaddr.Prefix, 64)
	for i := range prefixes {
		prefixes[i] = netaddr.PrefixFor(8, i)
	}
	f := NewFleet(snapshotTestConfig(t, prefixes))
	f.Peer(PeerKey{AS: 2, BGPID: 1})
	snap := snapshotBytes(t, f)
	f.Close()
	if err := f.Snapshot(&bytes.Buffer{}); err == nil {
		t.Error("snapshot of a closed fleet succeeded")
	}
	if _, err := RestoreFleet(bytes.NewReader(snap[:len(snap)-3]), snapshotTestConfig(t, prefixes)); err == nil {
		t.Error("restore of a truncated snapshot succeeded")
	}
	corrupt := append([]byte(nil), snap...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := RestoreFleet(bytes.NewReader(corrupt), snapshotTestConfig(t, prefixes)); err == nil {
		t.Error("restore of a corrupted snapshot succeeded")
	}
	if _, err := RestoreFleet(bytes.NewReader([]byte("not a snapshot")), snapshotTestConfig(t, prefixes)); err == nil {
		t.Error("restore of garbage succeeded")
	}
}

// countingWriter discards what it is given and counts it, so measuring
// a snapshot's allocations counts none for the sink.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestFleetSnapshotStreams pins the streamed checkpoint against the
// whole-fleet form it replaced: on a four-peer fleet, one peer through
// a burst cycle and the peers created out of key order, Snapshot writes
// exactly the bytes snapshot.Write gives for the FleetImage built by
// hand — the pool export plus every peer's exported state in ascending
// key order — and allocates at most twice the file's size, where
// holding the whole image before writing a byte cost more.
func TestFleetSnapshotStreams(t *testing.T) {
	prefixes := make([]netaddr.Prefix, 4096)
	for i := range prefixes {
		prefixes[i] = netaddr.PrefixFor(8, i)
	}
	f := NewFleet(snapshotTestConfig(t, prefixes))
	defer f.Close()
	keys := []PeerKey{{AS: 7, BGPID: 1}, {AS: 2, BGPID: 9}, {AS: 2, BGPID: 3}, {AS: 5, BGPID: 4}}
	for _, key := range keys {
		f.Peer(key)
	}
	if !f.Peer(keys[2]).Enqueue(fleetBurstCycle(keys[2], prefixes)) {
		t.Fatal("enqueue refused")
	}
	f.Sync()

	img := snapshot.FleetImage{Pool: f.pool.Export()}
	for _, p := range f.Peers() { // ascending key order
		p.Do(func(e *swiftengine.Engine) {
			img.Peers = append(img.Peers, snapshot.PeerImage{Key: p.Key(), State: e.ExportState()})
		})
	}
	var want bytes.Buffer
	if err := snapshot.Write(&want, &img); err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, f); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("streamed snapshot (%d bytes) differs from snapshot.Write of the whole image (%d bytes)", len(got), want.Len())
	}

	var sink countingWriter
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := f.Snapshot(&sink); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("snapshot: %d bytes written, %d allocated (%.2fx)", sink.n, alloc, float64(alloc)/float64(sink.n))
	if sink.n != want.Len() {
		t.Fatalf("snapshot wrote %d bytes, want %d", sink.n, want.Len())
	}
	if alloc > 2*uint64(sink.n) {
		t.Fatalf("snapshot of %d bytes allocated %d, want at most twice the file", sink.n, alloc)
	}
}
