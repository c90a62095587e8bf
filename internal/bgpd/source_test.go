package bgpd

import (
	"sync"
	"testing"
	"time"

	"swift/internal/bgp"
	"swift/internal/event"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
)

// recorder logs what a Source hands its sink and forwards all of it to
// a SessionSink over a real engine.
type recorder struct {
	*swiftengine.SessionSink
	peer event.PeerKey

	mu        sync.Mutex
	events    []event.Event
	learned   int
	provAt    int // len(events) when Provision ran; -1 before
	wrongPeer int // Learn or Provision calls for another peer
}

func (r *recorder) Apply(b event.Batch) error {
	r.mu.Lock()
	r.events = append(r.events, b...)
	r.mu.Unlock()
	return r.SessionSink.Apply(b)
}

func (r *recorder) Learn(peer event.PeerKey, p netaddr.Prefix, path []uint32) {
	r.mu.Lock()
	r.learned++
	if peer != r.peer {
		r.wrongPeer++
	}
	r.mu.Unlock()
	r.SessionSink.Learn(peer, p, path)
}

func (r *recorder) Provision(peer event.PeerKey) error {
	r.mu.Lock()
	r.provAt = len(r.events)
	if peer != r.peer {
		r.wrongPeer++
	}
	r.mu.Unlock()
	return r.SessionSink.Provision(peer)
}

// TestSourceContract feeds scripted UPDATE streams through a Source and
// checks the station's contract: table transfer, End-of-RIB or quiet
// provisioning, live lowering and quiet-stream ticks, every event
// attributed to the session's peer.
func TestSourceContract(t *testing.T) {
	const settle = 20 * time.Millisecond
	peer := event.PeerKey{AS: 2, BGPID: 0x0a000002}
	pfx := func(ns ...int) []netaddr.Prefix {
		out := make([]netaddr.Prefix, len(ns))
		for i, n := range ns {
			out[i] = netaddr.PrefixFor(8, n)
		}
		return out
	}
	ann := func(ns ...int) *bgp.Update {
		return &bgp.Update{Attrs: bgp.Attrs{ASPath: []uint32{2, 5, 8}, HasNextHop: true, NextHop: 2}, NLRI: pfx(ns...)}
	}
	wd := func(ns ...int) *bgp.Update { return &bgp.Update{Withdrawn: pfx(ns...)} }
	mixed := ann(0)
	mixed.Withdrawn = pfx(8)
	eor := &bgp.Update{}
	var quiet *bgp.Update // the stream goes quiet for many settle periods

	cases := []struct {
		name        string
		preloaded   bool          // the peer is provisioned before Run
		script      []*bgp.Update // sent in order; nil is a quiet period
		learned     int           // routes learned through the transfer
		provisioned bool          // the engine is provisioned at the end
		live        int           // withdraw/announce events delivered
		tick        bool          // the stream ends on a quiet tick
	}{
		{"table then End-of-RIB", false, []*bgp.Update{ann(0, 1), ann(2), eor, wd(0), ann(3)}, 3, true, 2, false},
		{"quiet transfer provisions", false, []*bgp.Update{ann(0, 1), quiet, wd(0)}, 2, true, 1, false},
		{"quiet without a learned route", false, []*bgp.Update{wd(0), quiet, ann(1)}, 1, false, 0, false},
		{"provisioned peer skips the transfer", true, []*bgp.Update{ann(5), wd(0)}, 0, true, 2, false},
		{"withdrawals during the transfer", false, []*bgp.Update{wd(7), mixed, eor}, 1, true, 0, false},
		{"quiet live stream ticks", true, []*bgp.Update{ann(5), wd(5), quiet}, 0, true, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engine := swiftengine.New(swiftengine.Config{LocalAS: 1, PrimaryNeighbor: 2})
			if tc.preloaded {
				for _, p := range pfx(0, 1, 2) {
					engine.LearnPrimary(p, []uint32{2, 5, 8})
				}
				if err := engine.Provision(); err != nil {
					t.Fatal(err)
				}
			}
			rec := &recorder{SessionSink: swiftengine.NewSessionSink(engine), peer: peer, provAt: -1}

			ch := make(chan *bgp.Update, len(tc.script))
			done := make(chan error, 1)
			go func() { done <- (&Source{Peer: peer, Updates: ch, TableSettle: settle}).Run(rec) }()
			for _, u := range tc.script {
				if u == nil {
					time.Sleep(10 * settle)
					continue
				}
				ch <- u
			}
			close(ch)
			if err := <-done; err != nil {
				t.Fatalf("Run: %v", err)
			}

			if rec.learned != tc.learned {
				t.Errorf("learned %d routes, want %d", rec.learned, tc.learned)
			}
			if got := rec.Provisioned(peer); got != tc.provisioned {
				t.Errorf("provisioned = %v, want %v", got, tc.provisioned)
			}
			if !tc.preloaded && tc.provisioned && rec.provAt != 0 {
				t.Errorf("provisioned after %d events, want before any", rec.provAt)
			}
			if !tc.provisioned && rec.provAt >= 0 {
				t.Error("provisioned without a learned route")
			}
			if rec.wrongPeer > 0 {
				t.Errorf("%d setup calls for another peer", rec.wrongPeer)
			}
			live, last := 0, time.Duration(0)
			for _, ev := range rec.events {
				if ev.Peer != peer {
					t.Fatalf("event %+v not attributed to %v", ev, peer)
				}
				if ev.Kind != event.KindTick {
					live++
				}
				last = max(last, ev.At)
			}
			if live != tc.live {
				t.Errorf("%d live events, want %d", live, tc.live)
			}
			if tc.tick {
				if n := len(rec.events); n == 0 || rec.events[n-1].Kind != event.KindTick || rec.events[n-1].At < last {
					t.Errorf("stream did not end on a tick at or after %v: %+v", last, rec.events)
				}
			}
		})
	}
}
