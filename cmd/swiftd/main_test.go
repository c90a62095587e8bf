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
