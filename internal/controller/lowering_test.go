package controller

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"swift/internal/bgp"
	"swift/internal/bgpd"
	"swift/internal/bmp"
	"swift/internal/event"
	"swift/internal/mrt"
	"swift/internal/netaddr"
)

// peerUpdate is one UPDATE as a peer sent it.
type peerUpdate struct {
	peer event.PeerKey
	ts   time.Time
	u    *bgp.Update
}

// flatEvent is an event reduced to what every front-end must agree on.
// at is relative to the peer's first event; the eBGP source stamps
// wall-clock offsets, so its at is not compared.
type flatEvent struct {
	kind   event.Kind
	at     time.Duration
	prefix netaddr.Prefix
	path   string
}

// recorder is a sink that flattens what it is handed into per-peer
// sequences, forgetting batch boundaries. It is also a Provisioner
// recording each peer's table transfer; a peer named in ready starts
// provisioned, so its stream is live from the first UPDATE. Ticks
// follow wall-clock quiet, not the UPDATEs, so it leaves them out — of
// the sequences and of the batch count, which counts only batches that
// carry a prefix event.
type recorder struct {
	mu      sync.Mutex // the station's settle scanner calls from its own goroutine
	byPeer  map[event.PeerKey][]flatEvent
	batches int
	ready   map[event.PeerKey]bool
	learned map[event.PeerKey][]string
	provAt  map[event.PeerKey]int // len(byPeer[peer]) when Provision ran
}

func newRecorder(ready ...event.PeerKey) *recorder {
	r := &recorder{
		byPeer:  make(map[event.PeerKey][]flatEvent),
		ready:   make(map[event.PeerKey]bool),
		learned: make(map[event.PeerKey][]string),
		provAt:  make(map[event.PeerKey]int),
	}
	for _, peer := range ready {
		r.ready[peer] = true
	}
	return r
}

func (r *recorder) Apply(b event.Batch) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	prefixed := false
	for _, ev := range b {
		if ev.Kind != event.KindTick {
			prefixed = true
			r.byPeer[ev.Peer] = append(r.byPeer[ev.Peer], flatEvent{kind: ev.Kind, at: ev.At, prefix: ev.Prefix, path: fmt.Sprint(ev.Path)})
		}
	}
	if prefixed {
		r.batches++
	}
	return nil
}

func (r *recorder) Learn(peer event.PeerKey, p netaddr.Prefix, path []uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.learned[peer] = append(r.learned[peer], fmt.Sprint(p, path))
}

func (r *recorder) Provisioned(peer event.PeerKey) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ready[peer]
}

func (r *recorder) Provision(peer event.PeerKey) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ready[peer] = true
	r.provAt[peer] = len(r.byPeer[peer])
	return nil
}

// sequence returns peer's events with at made relative to the first.
func (r *recorder) sequence(peer event.PeerKey, keepAt bool) []flatEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := slices.Clone(r.byPeer[peer])
	for i := len(out) - 1; i >= 0; i-- {
		out[i].at -= out[0].at
		if !keepAt {
			out[i].at = 0
		}
	}
	return out
}

// transfer returns the routes peer learned, sorted, and where in its
// event sequence it was provisioned (-1: never).
func (r *recorder) transfer(peer event.PeerKey) ([]string, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	at, ok := r.provAt[peer]
	if !ok {
		at = -1
	}
	return slices.Sorted(slices.Values(r.learned[peer])), at
}

// pipeConn is the read half of a scripted router connection.
type pipeConn struct {
	net.Conn
	r io.Reader
}

func (c *pipeConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c *pipeConn) Close() error               { return nil }

// pause is a reader that goes quiet for its duration, then ends.
type pause time.Duration

func (p pause) Read([]byte) (int, error) {
	time.Sleep(time.Duration(p))
	return 0, io.EOF
}

// TestOneLoweringThreeFrontEnds pushes the same UPDATE sequences through
// the three front-ends — BMP frames into a Station, BGP4MP records into
// an mrt.Source, decoded *bgp.Update values into a bgpd.Source —
// and demands the same per-peer event sequence from each, whatever the
// batch boundaries: there is one UPDATE→events lowering, and every
// source uses it. A case with a table transfer runs it through the two
// live front-ends, which share one event.Feed: they must learn the same
// routes and provision at the same point, whether End-of-RIB or the
// settle timer ends the transfer.
func TestOneLoweringThreeFrontEnds(t *testing.T) {
	pfx := func(origin, n, count int) []netaddr.Prefix {
		out := make([]netaddr.Prefix, count)
		for i := range out {
			out[i] = netaddr.PrefixFor(uint32(origin), n+i)
		}
		return out
	}
	attrs := func(path ...uint32) bgp.Attrs {
		return bgp.Attrs{ASPath: path, HasNextHop: true, NextHop: 0x0a000001}
	}
	long := make([]uint32, 200)
	for i := range long {
		long[i] = uint32(70000 + i)
	}
	a, b := event.PeerKey{AS: 65010, BGPID: 0x0a000001}, event.PeerKey{AS: 65020, BGPID: 0x0a000002}
	t0 := time.Unix(1_700_000_000, 0).UTC()

	churn := func() []peerUpdate {
		var out []peerUpdate
		for i := 0; i < 700; i++ { // enough events to cross several batch caps
			peer := a
			if i%3 == 0 {
				peer = b
			}
			u := &bgp.Update{}
			switch i % 4 {
			case 0:
				u.Withdrawn = pfx(10+i%5, i, 1+i%3)
			case 1:
				u.Attrs, u.NLRI = attrs(peer.AS, 3356, uint32(1000+i%7)), pfx(20+i%5, i, 1+i%4)
			case 2:
				u.Withdrawn = pfx(30, i, 2)
				u.Attrs, u.NLRI = attrs(peer.AS, uint32(2000+i%3)), pfx(31, i, 2)
			case 3:
				u.Attrs, u.NLRI = attrs(peer.AS, 174, 174, 174, uint32(3000+i%2)), pfx(40, i, 1)
			}
			out = append(out, peerUpdate{peer, t0.Add(time.Duration(i/10) * time.Second), u})
		}
		return out
	}
	// dump is peer a's initial table, with a withdrawal that carries no
	// signal during the transfer; burst is the live stream after it.
	dump := []peerUpdate{
		{a, t0, &bgp.Update{Attrs: attrs(65010, 3356, 15169), NLRI: pfx(8, 0, 4)}},
		{a, t0, &bgp.Update{Withdrawn: pfx(9, 0, 1)}},
		{a, t0, &bgp.Update{Attrs: attrs(65010, 174), NLRI: pfx(9, 0, 3)}},
	}
	burst := []peerUpdate{
		{a, t0.Add(time.Minute), &bgp.Update{Withdrawn: pfx(8, 0, 4)}},
		{a, t0.Add(time.Minute + time.Second), &bgp.Update{Withdrawn: pfx(9, 0, 2), Attrs: attrs(65010, 1299, 15169), NLRI: pfx(8, 0, 2)}},
		{b, t0.Add(time.Minute + time.Second), &bgp.Update{Withdrawn: pfx(10, 0, 1)}},
	}
	const settle = 20 * time.Millisecond
	cases := []struct {
		name    string
		table   []peerUpdate // peer a's table transfer, before updates
		settled bool         // the settle timer, not End-of-RIB, ends table
		updates []peerUpdate
	}{
		{"withdrawals only", nil, false, []peerUpdate{
			{a, t0, &bgp.Update{Withdrawn: pfx(8, 0, 3)}},
			{a, t0.Add(time.Second), &bgp.Update{Withdrawn: pfx(8, 3, 1)}},
		}},
		{"announcements only", nil, false, []peerUpdate{
			{a, t0, &bgp.Update{Attrs: attrs(65010, 3356), NLRI: pfx(8, 0, 4)}},
			{a, t0, &bgp.Update{Attrs: attrs(65010, 174), NLRI: pfx(8, 4, 1)}},
		}},
		{"withdraw and announce in one UPDATE", nil, false, []peerUpdate{
			{a, t0, &bgp.Update{Withdrawn: pfx(8, 0, 2), Attrs: attrs(65010, 3356, 15169), NLRI: pfx(9, 0, 2)}},
		}},
		{"one UPDATE larger than a batch", nil, false, []peerUpdate{
			{a, t0, &bgp.Update{Withdrawn: pfx(8, 0, 600)}},
			{a, t0.Add(time.Second), &bgp.Update{Attrs: attrs(65010, 1), NLRI: pfx(8, 0, 600)}},
		}},
		{"long path", nil, false, []peerUpdate{
			{a, t0, &bgp.Update{Attrs: bgp.Attrs{ASPath: long, HasNextHop: true, NextHop: 1}, NLRI: pfx(8, 0, 2)}},
			{a, t0.Add(time.Second), &bgp.Update{Attrs: attrs(65010), NLRI: pfx(8, 2, 1)}},
		}},
		{"two peers interleaved", nil, false, churn()},
		{"table then End-of-RIB then a burst", dump, false, burst},
		{"table ended by settle then a burst", dump, true, burst},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Peers without a table are provisioned out-of-band.
			ready := []event.PeerKey{b}
			if tc.table == nil {
				ready = append(ready, a)
			}
			var wantLearned []string
			for _, pu := range tc.table {
				for _, p := range pu.u.NLRI {
					wantLearned = append(wantLearned, fmt.Sprint(p, pu.u.Attrs.ASPath))
				}
			}
			slices.Sort(wantLearned)
			eor := &bgp.Update{}

			// BMP: one connection multiplexing every peer.
			frames := func(ups []peerUpdate) []byte {
				var wire []byte
				for _, pu := range ups {
					hdr := bmp.PeerHeader{AS: pu.peer.AS, BGPID: pu.peer.BGPID}
					hdr.SetIPv4(pu.peer.BGPID)
					hdr.SetTimestamp(pu.ts)
					var err error
					if wire, err = (&bmp.RouteMonitoring{Peer: hdr, Update: pu.u}).AppendWire(wire); err != nil {
						t.Fatal(err)
					}
				}
				return wire
			}
			var wire io.Reader = bytes.NewReader(frames(tc.updates))
			if tc.table != nil {
				end := io.Reader(bytes.NewReader(frames([]peerUpdate{{a, t0, eor}})))
				if tc.settled {
					end = pause(10 * settle)
				}
				wire = io.MultiReader(bytes.NewReader(frames(tc.table)), end, wire)
			}
			viaBMP := newRecorder(ready...)
			st := bmp.NewStation(bmp.StationConfig{Sink: viaBMP, TableSettle: settle})
			if err := st.ServeConn(&pipeConn{r: wire}); err != nil {
				t.Fatal(err)
			}

			// MRT: one archive, peers attributed per record. It carries
			// no table transfer, only the live UPDATEs.
			var archive bytes.Buffer
			mw := mrt.NewWriter(&archive)
			for _, pu := range tc.updates {
				if err := mw.WriteBGP4MP(pu.ts, pu.peer.AS, 64512, pu.peer.BGPID, 0x0a0000fe, pu.u); err != nil {
					t.Fatal(err)
				}
			}
			if err := mw.Flush(); err != nil {
				t.Fatal(err)
			}
			viaMRT := newRecorder(a, b)
			if err := (&mrt.Source{Updates: &archive}).Run(viaMRT); err != nil {
				t.Fatal(err)
			}

			for _, peer := range []event.PeerKey{a, b} {
				// eBGP: one source per session.
				viaBGP := newRecorder(ready...)
				ch := make(chan *bgp.Update, len(tc.table)+1+len(tc.updates))
				send := func(ups []peerUpdate) {
					for _, pu := range ups {
						if pu.peer == peer {
							ch <- pu.u
						}
					}
				}
				gap := tc.settled && peer == a
				send(tc.table)
				if tc.table != nil && peer == a && !gap {
					ch <- eor
				}
				stream := func() {
					send(tc.updates)
					close(ch)
				}
				if gap {
					go func() {
						time.Sleep(10 * settle)
						stream()
					}()
				} else {
					stream()
				}
				if err := (&bgpd.Source{Peer: peer, Updates: ch, TableSettle: settle}).Run(viaBGP); err != nil {
					t.Fatal(err)
				}

				want := viaBMP.sequence(peer, true)
				if got := viaMRT.sequence(peer, true); !slices.Equal(got, want) {
					t.Errorf("peer %v: MRT lowered %d events, BMP %d; first difference at %d", peer, len(got), len(want), firstDiff(got, want))
				}
				want = viaBMP.sequence(peer, false)
				if got := viaBGP.sequence(peer, false); !slices.Equal(got, want) {
					t.Errorf("peer %v: eBGP lowered %d events, BMP %d; first difference at %d", peer, len(got), len(want), firstDiff(got, want))
				}
				learned, provAt := viaBMP.transfer(peer)
				if gotLearned, gotAt := viaBGP.transfer(peer); !slices.Equal(gotLearned, learned) || gotAt != provAt {
					t.Errorf("peer %v: eBGP learned %v and provisioned at event %d, BMP %v at %d", peer, gotLearned, gotAt, learned, provAt)
				}
				if peer == a && tc.table != nil && (!slices.Equal(learned, wantLearned) || provAt != 0) {
					t.Errorf("peer %v: BMP learned %v and provisioned at event %d, want %v before any event", peer, learned, provAt, wantLearned)
				}
				n := 0
				for _, pu := range tc.updates {
					if pu.peer == peer {
						n += len(pu.u.Withdrawn) + len(pu.u.NLRI)
					}
				}
				if len(want) != n {
					t.Errorf("peer %v: %d events lowered, the UPDATEs carry %d prefixes", peer, len(want), n)
				}
				// A queue of UPDATEs is one burst: batches are cut by the
				// builder's cap, not per message. (A gap sends the burst
				// while the source runs.)
				if most := 1 + n/event.DefaultBatchEvents; !gap && viaBGP.batches > most {
					t.Errorf("peer %v: eBGP source delivered %d events in %d batches, want at most %d", peer, n, viaBGP.batches, most)
				}
			}
		})
	}
}

func firstDiff(a, b []flatEvent) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
