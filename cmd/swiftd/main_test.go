package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"swift/internal/bgp"
	"swift/internal/bgpd"
	"swift/internal/controller"
	"swift/internal/netaddr"
	"swift/internal/telemetry"
	"swift/internal/telemetry/logging"
)

// syncBuffer is a log sink the daemon's goroutines may share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// bgpDaemon is one swiftd run in eBGP listen mode with -snapshot-dir and
// the ops plane, as main would start it.
type bgpDaemon struct {
	d      *daemon
	logs   *syncBuffer
	sigs   chan os.Signal
	done   chan struct{}
	listen string
}

func startBGPDaemon(t *testing.T, snapDir string) *bgpDaemon {
	t.Helper()
	b := &bgpDaemon{logs: &syncBuffer{}, sigs: make(chan os.Signal, 1), done: make(chan struct{}), listen: freeAddr(t)}
	b.d = &daemon{
		logger:   logging.New(b.logs, logging.Info),
		registry: telemetry.NewRegistry(),
		ring:     telemetry.NewBurstRing(16),
		httpAddr: freeAddr(t),
		snapDir:  snapDir,
	}
	b.d.fleet, b.d.restoreStatus = b.d.newFleet(65001, nil, 0)
	go func() {
		defer close(b.done)
		b.d.runBGP(b.listen, "", 65001, 0x01010101, 65010, 100*time.Millisecond, b.sigs)
	}()
	return b
}

// get polls the ops plane until path answers 200.
func (b *bgpDaemon) get(t *testing.T, path string) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + b.d.httpAddr + path)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return body
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s: %v\n%s", path, err, b.logs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// peers reads /peers.
func (b *bgpDaemon) peers(t *testing.T) []controller.PeerStatus {
	t.Helper()
	var out []controller.PeerStatus
	if err := json.Unmarshal(b.get(t, "/peers"), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitPeer polls /peers until the one peer is provisioned with want RIB
// prefixes.
func (b *bgpDaemon) waitPeer(t *testing.T, want int) controller.PeerStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ps := b.peers(t)
		if len(ps) == 1 && ps[0].Provisioned && ps[0].RIBPrefixes == want {
			return ps[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("peers %+v, want one provisioned with %d prefixes\n%s", ps, want, b.logs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// dial connects the in-process peer, retrying until the daemon listens.
func (b *bgpDaemon) dial(t *testing.T) *bgpd.Session {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		sess, err := bgpd.Dial(b.listen, bgpd.Config{LocalAS: 65010, RouterID: 0x0a000002})
		if err == nil {
			return sess
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial %s: %v\n%s", b.listen, err, b.logs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop shuts the daemon down as SIGTERM would.
func (b *bgpDaemon) stop(t *testing.T) {
	t.Helper()
	b.sigs <- syscall.SIGTERM
	select {
	case <-b.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not shut down\n%s", b.logs)
	}
}

// TestEBGPWarmRestart is restart-smoke for the eBGP mode: a session
// sends its table, End-of-RIB and a few live UPDATEs, the daemon shuts
// down and checkpoints, and a second daemon on the same directory comes
// back warm with the peer provisioned and the same RIB and FIB, then
// takes the reconnected session's UPDATEs live, with no table transfer.
func TestEBGPWarmRestart(t *testing.T) {
	dir := t.TempDir()
	attrs := func(path ...uint32) bgp.Attrs {
		return bgp.Attrs{ASPath: path, HasNextHop: true, NextHop: 0x0a000002}
	}
	pfx := func(origin uint32, n, count int) []netaddr.Prefix {
		out := make([]netaddr.Prefix, count)
		for i := range out {
			out[i] = netaddr.PrefixFor(origin, n+i)
		}
		return out
	}

	first := startBGPDaemon(t, dir)
	if h := string(first.get(t, "/healthz")); !strings.Contains(h, "restore: cold start") {
		t.Fatalf("first start /healthz = %q, want a cold start", h)
	}
	peer := first.dial(t)
	if err := peer.Send(
		&bgp.Update{Attrs: attrs(65010, 3356, 15169), NLRI: pfx(8, 0, 120)},
		&bgp.Update{Attrs: attrs(65010, 174, 13335), NLRI: pfx(9, 0, 80)},
		&bgp.Update{}, // End-of-RIB
		&bgp.Update{Withdrawn: pfx(8, 0, 3)},
		&bgp.Update{Attrs: attrs(65010, 1299, 15169), NLRI: pfx(8, 0, 2)},
	); err != nil {
		t.Fatal(err)
	}
	before := first.waitPeer(t, 199)
	first.stop(t)
	peer.Close()
	if fi, err := os.Stat(filepath.Join(dir, "fleet.snap")); err != nil || fi.Size() == 0 {
		t.Fatalf("no shutdown checkpoint: %v\n%s", err, first.logs)
	}

	second := startBGPDaemon(t, dir)
	defer second.stop(t)
	if h := string(second.get(t, "/healthz")); !strings.Contains(h, "restore: warm") {
		t.Fatalf("restart /healthz = %q, want a warm restore\n%s", h, second.logs)
	}
	after := second.waitPeer(t, before.RIBPrefixes)
	if after.Peer != before.Peer || after.FIBTags != before.FIBTags {
		t.Fatalf("restored peer %+v, was %+v", after, before)
	}
	// The restored peer is provisioned, so the reconnected session skips
	// the table transfer: its first withdrawal is live, not dropped.
	peer = second.dial(t)
	defer peer.Close()
	if err := peer.Send(&bgp.Update{Withdrawn: pfx(9, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	second.waitPeer(t, before.RIBPrefixes-1)
}

// checkpointed writes dir/fleet.snap from a one-peer fleet provisioned
// over a small table, through the daemon's own checkpoint, and returns
// the daemon (its fleet still open) and the file's bytes.
func checkpointed(t *testing.T, dir string) (*daemon, []byte) {
	t.Helper()
	d := &daemon{
		logger:   logging.New(io.Discard, logging.Info),
		registry: telemetry.NewRegistry(),
		ring:     telemetry.NewBurstRing(16),
		snapDir:  dir,
	}
	d.fleet, _ = d.newFleet(65001, nil, 0)
	p := d.fleet.Peer(controller.PeerKey{AS: 65010, BGPID: 0x0a000002})
	for i := 0; i < 50; i++ {
		p.LearnPrimary(netaddr.PrefixFor(8, i), []uint32{65010, 3356, 15169})
	}
	if err := p.Provision(); err != nil {
		t.Fatal(err)
	}
	if err := d.checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "fleet.snap"))
	if err != nil {
		t.Fatal(err)
	}
	return d, snap
}

// takesSession dials the daemon as its eBGP peer, sends a table and
// End-of-RIB, and waits for the peer to be provisioned with it.
func (b *bgpDaemon) takesSession(t *testing.T) {
	t.Helper()
	peer := b.dial(t)
	defer peer.Close()
	nlri := make([]netaddr.Prefix, 20)
	for i := range nlri {
		nlri[i] = netaddr.PrefixFor(9, i)
	}
	attrs := bgp.Attrs{ASPath: []uint32{65010, 174, 13335}, HasNextHop: true, NextHop: 0x0a000002}
	if err := peer.Send(&bgp.Update{Attrs: attrs, NLRI: nlri}, &bgp.Update{}); err != nil {
		t.Fatal(err)
	}
	b.waitPeer(t, len(nlri))
}

// TestColdStartOnBadSnapshot: a fleet.snap that is truncated,
// bit-flipped or of a future format version is refused — the daemon
// reports a cold start on /healthz and takes its session as if there
// were no snapshot.
func TestColdStartOnBadSnapshot(t *testing.T) {
	d, good := checkpointed(t, t.TempDir())
	d.fleet.Close()
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	future := append([]byte(nil), good...)
	future[8] = 2 // the u32 version after the 8-byte magic
	for _, tc := range []struct {
		name string
		snap []byte
	}{
		{"truncated", good[:len(good)/2]},
		{"bit-flipped", flipped},
		{"version 2", future},
	} {
		name, snap := tc.name, tc.snap
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "fleet.snap"), snap, 0o644); err != nil {
				t.Fatal(err)
			}
			b := startBGPDaemon(t, dir)
			defer b.stop(t)
			if h := string(b.get(t, "/healthz")); !strings.Contains(h, "cold start") {
				t.Fatalf("/healthz = %q, want a cold start\n%s", h, b.logs)
			}
			b.takesSession(t)
		})
	}
}

// TestRestartAfterKillMidCheckpoint: a kill mid-checkpoint leaves a
// partial fleet.snap.tmp* beside the last good fleet.snap. The next
// start comes back warm from fleet.snap and removes the stray file.
func TestRestartAfterKillMidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d, good := checkpointed(t, dir)
	d.fleet.Close()
	stray := filepath.Join(dir, "fleet.snap.tmp4242")
	if err := os.WriteFile(stray, good[:len(good)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	b := startBGPDaemon(t, dir)
	defer b.stop(t)
	if h := string(b.get(t, "/healthz")); !strings.Contains(h, "restore: warm, 1 peers") {
		t.Fatalf("/healthz = %q, want a warm restore of 1 peer\n%s", h, b.logs)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray checkpoint %s still there (%v)", stray, err)
	}
}

// TestFailedCheckpointKeepsPrevious: a checkpoint that fails — here the
// fleet is closed, so its snapshot refuses — leaves the previous
// fleet.snap byte-identical and no temp file behind.
func TestFailedCheckpointKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	d, good := checkpointed(t, dir)
	d.fleet.Close()
	if err := d.checkpoint(); err == nil {
		t.Fatal("checkpoint of a closed fleet succeeded")
	}
	if got, err := os.ReadFile(filepath.Join(dir, "fleet.snap")); err != nil || !bytes.Equal(got, good) {
		t.Fatalf("fleet.snap changed by a failed checkpoint (%d bytes, was %d; %v)", len(got), len(good), err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "fleet.snap.tmp*")); len(left) != 0 {
		t.Fatalf("failed checkpoint left %v", left)
	}
}
