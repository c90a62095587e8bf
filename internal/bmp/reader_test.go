package bmp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"swift/internal/bgp"
	"swift/internal/event"
	"swift/internal/netaddr"
)

// routeMonitoringStream pre-encodes n Route Monitoring frames for one
// peer, each announcing one prefix over a three-hop path.
func routeMonitoringStream(tb testing.TB, n int) []byte {
	tb.Helper()
	hdr := PeerHeader{AS: 65010, BGPID: 7, Seconds: 1_700_000_000}
	hdr.SetIPv4(0x0a000007)
	u := &bgp.Update{
		Attrs: bgp.Attrs{ASPath: []uint32{65010, 3356, 15169}, HasNextHop: true, NextHop: 1},
		NLRI:  make([]netaddr.Prefix, 1),
	}
	var wire []byte
	for i := 0; i < n; i++ {
		u.NLRI[0] = netaddr.PrefixFor(100, i%4096)
		var err error
		if wire, err = (&RouteMonitoring{Peer: hdr, Update: u}).AppendWire(wire); err != nil {
			tb.Fatal(err)
		}
	}
	return wire
}

// memConn is a net.Conn reading from memory, for driving ServeConn
// without a socket.
type memConn struct {
	net.Conn
	r *bytes.Reader
}

func (c *memConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c *memConn) Close() error               { return nil }

// TestReaderNextAllocs pins the framing half of the heap-free ingest
// path: Next serves header and body out of the read buffer.
func TestReaderNextAllocs(t *testing.T) {
	const frames = 1000
	wire := routeMonitoringStream(t, frames)
	src := bytes.NewReader(wire)
	r := NewReader(src)
	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(frames-2, func() {
		if _, _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Reader.Next allocates %v objects per frame, want 0", allocs)
	}
}

// TestServeConnAllocs pins the whole station path — framing, decode,
// lowering, batching — at a handful of objects per thousand messages:
// the batches handed to the sink and the path arena's chunks, nothing
// per message. What a connection costs to set up (its reader, its
// scanner goroutine, the peer's first small batches) is measured on a
// one-message stream and taken off, so the figure is the steady state's.
func TestServeConnAllocs(t *testing.T) {
	const msgs = 10_000
	wire := routeMonitoringStream(t, msgs)
	one := routeMonitoringStream(t, 1)
	events := 0
	st := NewStation(StationConfig{Sink: event.SinkFunc(func(b event.Batch) error {
		events += len(b)
		return nil
	})})
	serve := func(stream []byte) float64 {
		conn := &memConn{r: bytes.NewReader(stream)}
		return testing.AllocsPerRun(5, func() {
			conn.r.Reset(stream)
			if err := st.ServeConn(conn); err != nil {
				t.Fatal(err)
			}
		})
	}
	setup, total := serve(one), serve(wire)
	if events != 6*(msgs+1) {
		t.Fatalf("sink saw %d events over 12 runs, want %d", events, 6*(msgs+1))
	}
	per1000 := (total - setup) / (msgs / 1000)
	t.Logf("%v objects per connection, %.1f per 1,000 messages", setup, per1000)
	if per1000 > 5 {
		t.Errorf("ServeConn allocates %.1f objects per 1,000 messages, want <= 5", per1000)
	}
}

// splitReader hands out its data in two reads, cut at split, and counts
// the reads it served.
type splitReader struct {
	data  []byte
	split int
	off   int
	reads int
}

func (s *splitReader) Read(p []byte) (int, error) {
	if s.off >= len(s.data) {
		return 0, io.EOF
	}
	s.reads++
	end := len(s.data)
	if s.off < s.split && s.split < end {
		end = s.split
	}
	n := copy(p, s.data[s.off:end])
	s.off += n
	return n, nil
}

// rawFrame builds a raw frame whose length field says total and whose body
// is filled out to have bytes on the wire.
func rawFrame(typ uint8, total uint32, have int) []byte {
	b := make([]byte, have)
	b[0] = Version
	binary.BigEndian.PutUint32(b[1:5], total)
	b[5] = typ
	for i := HeaderLen; i < have; i++ {
		b[i] = byte(i)
	}
	return b
}

// FuzzReader drives the zero-copy framing with arbitrary bytes split
// across two reads. Whatever arrives, the reader must agree with a
// naive reference framer on every frame and on where and why the stream
// stops, and must never read from the stream while it reports a frame
// ready.
func FuzzReader(f *testing.F) {
	two := append(rawFrame(TypeStatsReport, 40, 40), rawFrame(TypeRouteMirroring, 9, 9)...)
	f.Add(rawFrame(TypeInitiation, HeaderLen, HeaderLen), uint16(3))           // an empty body: exactly 6 bytes
	f.Add(rawFrame(TypeRouteMonitoring, MaxMsgLen-1, MaxMsgLen-1), uint16(0))  // 65,535 bytes
	f.Add(rawFrame(TypeRouteMonitoring, MaxMsgLen, MaxMsgLen), uint16(40000))  // 65,536 bytes: the whole buffer
	f.Add(rawFrame(TypeRouteMonitoring, MaxMsgLen+1, HeaderLen+10), uint16(0)) // one byte too long to accept
	f.Add(two, uint16(43))                                                     // second frame split inside its header
	f.Add(two, uint16(20))                                                     // first frame split inside its body
	f.Add(rawFrame(TypePeerUp, 500, 100), uint16(50))                          // length larger than what follows
	f.Add(append(rawFrame(TypePeerDown, 12, 12), Version, 0, 0), uint16(12))   // stream ends inside a header
	f.Add(append(rawFrame(TypePeerDown, 12, 12), 9, 0, 0, 0, 6, 0), uint16(5)) // bad version after a good frame
	f.Add(rawFrame(TypeTermination, 5, HeaderLen), uint16(6))                  // length shorter than a header
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		src := &splitReader{data: data, split: int(split)}
		r := NewReader(src)
		rest := data
		for {
			ready, before := r.Ready(), src.reads
			typ, body, err := r.Next()
			if ready && src.reads != before {
				t.Fatalf("Next read from the stream although Ready reported a buffered frame")
			}
			// Reference framing over the bytes not yet consumed.
			var want error
			switch {
			case len(rest) == 0:
				want = io.EOF
			case len(rest) < HeaderLen:
				want = ErrShortMessage
			case rest[0] != Version:
				want = ErrBadVersion
			}
			total := 0
			if want == nil {
				total = int(binary.BigEndian.Uint32(rest[1:5]))
				switch {
				case total < HeaderLen || total > MaxMsgLen:
					want = ErrBadLength
				case total > len(rest):
					want = ErrShortMessage
				}
			}
			if want != nil {
				if !errors.Is(err, want) {
					t.Fatalf("with %d bytes left: err = %v, want %v", len(rest), err, want)
				}
				return
			}
			if err != nil {
				t.Fatalf("frame of %d bytes with %d left: unexpected error %v", total, len(rest), err)
			}
			if typ != rest[5] || !bytes.Equal(body, rest[HeaderLen:total]) {
				t.Fatalf("frame of %d bytes: type %d body %d bytes does not match the stream", total, typ, len(body))
			}
			if got := r.Buffered(); got > len(rest)-total {
				t.Fatalf("Buffered() = %d with only %d bytes left past the frame", got, len(rest)-total)
			}
			rest = rest[total:]
		}
	})
}

// TestStationMetricsAfterServe pins what Metrics documents: once a
// connection has been served to completion its counters are exact.
func TestStationMetricsAfterServe(t *testing.T) {
	const msgs = 300
	wire := routeMonitoringStream(t, msgs)
	st := NewStation(StationConfig{Sink: event.SinkFunc(func(event.Batch) error { return nil }), TableSettle: time.Hour})
	if err := st.ServeConn(&memConn{r: bytes.NewReader(wire)}); err != nil {
		t.Fatal(err)
	}
	m := st.Metrics()
	if m.Messages != msgs || m.RouteMonitoring != msgs || m.Bytes != uint64(len(wire)) || m.DecodeErrors != 0 {
		t.Errorf("metrics after %d messages / %d bytes: %+v", msgs, len(wire), m)
	}
}
