package controller

import (
	"bytes"
	"fmt"
	"net"
	"slices"
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
// sequences, forgetting batch boundaries.
type recorder struct {
	byPeer  map[event.PeerKey][]flatEvent
	batches int
}

func (r *recorder) Apply(b event.Batch) error {
	if r.byPeer == nil {
		r.byPeer = make(map[event.PeerKey][]flatEvent)
	}
	r.batches++
	for _, ev := range b {
		r.byPeer[ev.Peer] = append(r.byPeer[ev.Peer], flatEvent{kind: ev.Kind, at: ev.At, prefix: ev.Prefix, path: fmt.Sprint(ev.Path)})
	}
	return nil
}

// sequence returns peer's events with at made relative to the first.
func (r *recorder) sequence(peer event.PeerKey, keepAt bool) []flatEvent {
	out := slices.Clone(r.byPeer[peer])
	for i := len(out) - 1; i >= 0; i-- {
		out[i].at -= out[0].at
		if !keepAt {
			out[i].at = 0
		}
	}
	return out
}

// pipeConn is the read half of a scripted router connection.
type pipeConn struct {
	net.Conn
	r *bytes.Reader
}

func (c *pipeConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c *pipeConn) Close() error               { return nil }

// TestOneLoweringThreeFrontEnds pushes the same UPDATE sequences through
// the three front-ends — BMP frames into a Station, BGP4MP records into
// an mrt.Source, decoded *bgp.Update values into a bgpd.Source —
// and demands the same per-peer event sequence from each, whatever the
// batch boundaries: there is one UPDATE→events lowering, and every
// source uses it.
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
	cases := []struct {
		name    string
		updates []peerUpdate
	}{
		{"withdrawals only", []peerUpdate{
			{a, t0, &bgp.Update{Withdrawn: pfx(8, 0, 3)}},
			{a, t0.Add(time.Second), &bgp.Update{Withdrawn: pfx(8, 3, 1)}},
		}},
		{"announcements only", []peerUpdate{
			{a, t0, &bgp.Update{Attrs: attrs(65010, 3356), NLRI: pfx(8, 0, 4)}},
			{a, t0, &bgp.Update{Attrs: attrs(65010, 174), NLRI: pfx(8, 4, 1)}},
		}},
		{"withdraw and announce in one UPDATE", []peerUpdate{
			{a, t0, &bgp.Update{Withdrawn: pfx(8, 0, 2), Attrs: attrs(65010, 3356, 15169), NLRI: pfx(9, 0, 2)}},
		}},
		{"one UPDATE larger than a batch", []peerUpdate{
			{a, t0, &bgp.Update{Withdrawn: pfx(8, 0, 600)}},
			{a, t0.Add(time.Second), &bgp.Update{Attrs: attrs(65010, 1), NLRI: pfx(8, 0, 600)}},
		}},
		{"long path", []peerUpdate{
			{a, t0, &bgp.Update{Attrs: bgp.Attrs{ASPath: long, HasNextHop: true, NextHop: 1}, NLRI: pfx(8, 0, 2)}},
			{a, t0.Add(time.Second), &bgp.Update{Attrs: attrs(65010), NLRI: pfx(8, 2, 1)}},
		}},
		{"two peers interleaved", churn()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// BMP: one connection multiplexing every peer.
			var wire []byte
			var err error
			for _, pu := range tc.updates {
				hdr := bmp.PeerHeader{AS: pu.peer.AS, BGPID: pu.peer.BGPID}
				hdr.SetIPv4(pu.peer.BGPID)
				hdr.SetTimestamp(pu.ts)
				if wire, err = (&bmp.RouteMonitoring{Peer: hdr, Update: pu.u}).AppendWire(wire); err != nil {
					t.Fatal(err)
				}
			}
			var viaBMP recorder
			st := bmp.NewStation(bmp.StationConfig{Sink: &viaBMP, TableSettle: time.Hour})
			if err := st.ServeConn(&pipeConn{r: bytes.NewReader(wire)}); err != nil {
				t.Fatal(err)
			}

			// MRT: one archive, peers attributed per record.
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
			var viaMRT recorder
			if err := (&mrt.Source{Updates: &archive}).Run(&viaMRT); err != nil {
				t.Fatal(err)
			}

			for _, peer := range []event.PeerKey{a, b} {
				// eBGP: one source per session.
				var viaBGP recorder
				ch := make(chan *bgp.Update, len(tc.updates))
				for _, pu := range tc.updates {
					if pu.peer == peer {
						ch <- pu.u
					}
				}
				close(ch)
				if err := (&bgpd.Source{Peer: peer, Updates: ch}).Run(&viaBGP); err != nil {
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
				// builder's cap, not per message.
				if most := 1 + n/event.DefaultBatchEvents; viaBGP.batches > most {
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
