package mrt

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
	"time"

	"swift/internal/bgp"
	"swift/internal/netaddr"
)

func TestBGP4MPRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ts := time.Unix(1700000000, 0).UTC()
	u := &bgp.Update{
		Attrs: bgp.Attrs{
			ASPath:     []uint32{65001, 65002},
			HasNextHop: true,
			NextHop:    0x0a000001,
		},
		NLRI: []netaddr.Prefix{netaddr.MustParsePrefix("192.0.2.0/24")},
	}
	if err := w.WriteBGP4MP(ts, 65001, 64512, 0x01020304, 0x05060708, u); err != nil {
		t.Fatal(err)
	}
	wd := &bgp.Update{Withdrawn: []netaddr.Prefix{netaddr.MustParsePrefix("198.51.0.0/16")}}
	if err := w.WriteBGP4MP(ts.Add(time.Second), 65001, 64512, 0x01020304, 0x05060708, wd); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	m1, err := r.NextBGP4MP()
	if err != nil {
		t.Fatal(err)
	}
	if m1.PeerAS != 65001 || m1.LocalAS != 64512 || !m1.Timestamp.Equal(ts) {
		t.Errorf("record 1 = %+v", m1)
	}
	var got bgp.Update
	if err := got.Decode(m1.Body); err != nil {
		t.Fatal(err)
	}
	if len(got.NLRI) != 1 || got.NLRI[0] != u.NLRI[0] {
		t.Errorf("nlri = %v", got.NLRI)
	}
	m2, err := r.NextBGP4MP()
	if err != nil {
		t.Fatal(err)
	}
	var got2 bgp.Update
	if err := got2.Decode(m2.Body); err != nil {
		t.Fatal(err)
	}
	if len(got2.NLRI) != 0 || len(got2.Withdrawn) == 0 {
		t.Error("record 2 should be withdrawal-only")
	}
	if _, err := r.NextBGP4MP(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReaderSkipsUnknownRecords(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.writeRecord(time.Unix(0, 0), 99, 0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	u := &bgp.Update{Withdrawn: []netaddr.Prefix{netaddr.MustParsePrefix("10.0.0.0/8")}}
	if err := w.WriteBGP4MP(time.Unix(5, 0), 1, 2, 3, 4, u); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := NewReader(bytes.NewReader(buf.Bytes()))
	m, err := r.NextBGP4MP()
	if err != nil {
		t.Fatal(err)
	}
	if m.PeerAS != 1 {
		t.Errorf("peer AS = %d", m.PeerAS)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	u := &bgp.Update{Withdrawn: []netaddr.Prefix{netaddr.MustParsePrefix("10.0.0.0/8")}}
	if err := w.WriteBGP4MP(time.Unix(5, 0), 1, 2, 3, 4, u); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		if _, err := r.NextBGP4MP(); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestTableDumpRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ts := time.Unix(1700000000, 0).UTC()
	peers := []PeerEntry{
		{ID: 0x01010101, IP: 0x0a000001, AS: 65001},
		{ID: 0x02020202, IP: 0x0a000002, AS: 400000},
	}
	if err := w.WritePeerIndexTable(ts, 0xc0ffee00, peers); err != nil {
		t.Fatal(err)
	}
	rib := &RIBRecord{
		Sequence: 7,
		Prefix:   netaddr.MustParsePrefix("192.0.2.0/24"),
		Entries: []RIBEntry{
			{
				PeerIndex:  0,
				Originated: ts.Add(-time.Hour),
				Attrs: bgp.Attrs{
					ASPath:     []uint32{65001, 65002, 65003},
					HasNextHop: true,
					NextHop:    0x0a000001,
				},
			},
			{
				PeerIndex:  1,
				Originated: ts.Add(-2 * time.Hour),
				Attrs: bgp.Attrs{
					ASPath:     []uint32{400000, 65003},
					HasNextHop: true,
					NextHop:    0x0a000002,
				},
			},
		},
	}
	if err := w.WriteRIBIPv4(ts, rib); err != nil {
		t.Fatal(err)
	}
	w.Flush()

	r := NewReader(bytes.NewReader(buf.Bytes()))
	rec1, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec1.Type != TypeTableDumpV2 || rec1.Subtype != SubtypePeerIndexTable {
		t.Fatalf("record 1 = %d/%d", rec1.Type, rec1.Subtype)
	}
	cid, gotPeers, err := decodePeerIndexTable(rec1.Body)
	if err != nil {
		t.Fatal(err)
	}
	if cid != 0xc0ffee00 || len(gotPeers) != 2 || gotPeers[1].AS != 400000 {
		t.Errorf("peer table = %x %+v", cid, gotPeers)
	}

	rec2, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	gotRIB, err := DecodeRIBIPv4(rec2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if gotRIB.Sequence != 7 || gotRIB.Prefix != rib.Prefix || len(gotRIB.Entries) != 2 {
		t.Errorf("rib = %+v", gotRIB)
	}
	if got := gotRIB.Entries[1].Attrs.ASPath; len(got) != 2 || got[0] != 400000 {
		t.Errorf("entry 1 path = %v", got)
	}
	if !gotRIB.Entries[0].Originated.Equal(ts.Add(-time.Hour)) {
		t.Errorf("originated = %v", gotRIB.Entries[0].Originated)
	}
}

func TestExtendedTimestampRecord(t *testing.T) {
	// Hand-build a BGP4MP_ET record: same as BGP4MP but with 4 extra
	// microsecond bytes at the start of the body.
	var inner bytes.Buffer
	w := NewWriter(&inner)
	u := &bgp.Update{Withdrawn: []netaddr.Prefix{netaddr.MustParsePrefix("10.0.0.0/8")}}
	if err := w.WriteBGP4MP(time.Unix(100, 0), 1, 2, 3, 4, u); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	raw := inner.Bytes()
	body := raw[12:]

	var buf bytes.Buffer
	w2 := NewWriter(&buf)
	etBody := append([]byte{0x00, 0x07, 0xa1, 0x20}, body...) // 500000 us
	if err := w2.writeRecord(time.Unix(100, 0), TypeBGP4MPET, SubtypeBGP4MPMessageAS4, etBody); err != nil {
		t.Fatal(err)
	}
	w2.Flush()

	r := NewReader(bytes.NewReader(buf.Bytes()))
	m, err := r.NextBGP4MP()
	if err != nil {
		t.Fatal(err)
	}
	want := time.Unix(100, 0).Add(500 * time.Millisecond).UTC()
	if !m.Timestamp.Equal(want) {
		t.Errorf("timestamp = %v, want %v", m.Timestamp, want)
	}
}

func TestManyRecordsStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 500
	for i := 0; i < n; i++ {
		u := &bgp.Update{Withdrawn: []netaddr.Prefix{netaddr.BlockFor(uint32(i%200+1), i%250)}}
		if err := w.WriteBGP4MP(time.Unix(int64(i), 0), uint32(i%7+1), 64512, 1, 2, u); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	r := NewReader(bytes.NewReader(buf.Bytes()))
	count := 0
	for {
		_, err := r.NextBGP4MP()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != n {
		t.Errorf("read %d records, want %d", count, n)
	}
}

func TestWalkRIBIPv4(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ts := time.Unix(1700000000, 0).UTC()
	if err := w.WritePeerIndexTable(ts, 1, []PeerEntry{{ID: 2, IP: 3, AS: 65002}}); err != nil {
		t.Fatal(err)
	}
	want := []netaddr.Prefix{
		netaddr.MustParsePrefix("192.0.2.0/24"),
		netaddr.MustParsePrefix("198.51.100.0/24"),
	}
	for i, p := range want {
		rec := &RIBRecord{
			Sequence: uint32(i),
			Prefix:   p,
			Entries: []RIBEntry{{
				Originated: ts,
				Attrs:      bgp.Attrs{ASPath: []uint32{65002, 65003}, HasNextHop: true, NextHop: 3},
			}},
		}
		if err := w.WriteRIBIPv4(ts, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// The walk must visit exactly the RIB records, skipping the peer
	// index table, and stop cleanly at EOF.
	var got []netaddr.Prefix
	err := WalkRIBIPv4(bytes.NewReader(buf.Bytes()), func(rr *RIBRecord) error {
		got = append(got, rr.Prefix)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: prefix %v, want %v", i, got[i], want[i])
		}
	}

	// A callback error must stop the walk and propagate.
	calls := 0
	sentinel := io.ErrClosedPipe
	if err := WalkRIBIPv4(bytes.NewReader(buf.Bytes()), func(*RIBRecord) error {
		calls++
		return sentinel
	}); err != sentinel {
		t.Errorf("walk error = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Errorf("callback ran %d times after erroring, want 1", calls)
	}

	// A truncated stream must surface an error, not silent success.
	if err := WalkRIBIPv4(bytes.NewReader(buf.Bytes()[:buf.Len()-3]), func(*RIBRecord) error {
		return nil
	}); err == nil {
		t.Error("truncated stream walked without error")
	}
}

// TestWalkRIBIPv4ReuseMatchesFresh pins the buffer-reusing walker to
// the fresh-record walker: same records, same order, same attributes —
// across records with different path lengths and entry counts, so slot
// and buffer resurrection is exercised.
func TestWalkRIBIPv4ReuseMatchesFresh(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ts := time.Unix(1700000000, 0).UTC()
	if err := w.WritePeerIndexTable(ts, 1, []PeerEntry{{ID: 2, IP: 3, AS: 65002}}); err != nil {
		t.Fatal(err)
	}
	recs := []*RIBRecord{
		{Sequence: 0, Prefix: netaddr.MustParsePrefix("192.0.2.0/24"), Entries: []RIBEntry{
			{Originated: ts, Attrs: bgp.Attrs{ASPath: []uint32{65002, 65003, 65004, 65005}, HasNextHop: true, NextHop: 3}},
			{Originated: ts, Attrs: bgp.Attrs{ASPath: []uint32{65002, 65010}, HasNextHop: true, NextHop: 3}},
		}},
		{Sequence: 1, Prefix: netaddr.MustParsePrefix("198.51.100.0/24"), Entries: []RIBEntry{
			{Originated: ts, Attrs: bgp.Attrs{ASPath: []uint32{65002}, HasNextHop: true, NextHop: 3, Communities: []uint32{7, 9}}},
		}},
		{Sequence: 2, Prefix: netaddr.MustParsePrefix("203.0.113.0/24"), Entries: []RIBEntry{
			{Originated: ts, Attrs: bgp.Attrs{ASPath: []uint32{65002, 65020, 65021}, HasNextHop: true, NextHop: 3}},
			{Originated: ts, Attrs: bgp.Attrs{ASPath: []uint32{65002, 65030}, HasNextHop: true, NextHop: 3}},
			{Originated: ts, Attrs: bgp.Attrs{ASPath: []uint32{65002}, HasNextHop: true, NextHop: 3}},
		}},
	}
	for _, r := range recs {
		if err := w.WriteRIBIPv4(ts, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	type flat struct {
		seq    uint32
		prefix netaddr.Prefix
		path   []uint32
		comms  []uint32
	}
	collect := func(walk func(io.Reader, func(*RIBRecord) error) error) []flat {
		var out []flat
		err := walk(bytes.NewReader(buf.Bytes()), func(rr *RIBRecord) error {
			for i := range rr.Entries {
				out = append(out, flat{
					seq:    rr.Sequence,
					prefix: rr.Prefix,
					path:   append([]uint32(nil), rr.Entries[i].Attrs.ASPath...),
					comms:  append([]uint32(nil), rr.Entries[i].Attrs.Communities...),
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	fresh, reused := collect(WalkRIBIPv4), collect(WalkRIBIPv4Reuse)
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("walkers disagree:\nfresh  %+v\nreused %+v", fresh, reused)
	}
	if len(fresh) != 6 {
		t.Fatalf("flattened %d entries, want 6", len(fresh))
	}
}

// decodePeerIndexTable decodes a PEER_INDEX_TABLE body, the record
// WritePeerIndexTable writes and the RIB walkers skip.
func decodePeerIndexTable(body []byte) (collectorID uint32, peers []PeerEntry, err error) {
	if len(body) < 6 {
		return 0, nil, ErrTruncated
	}
	collectorID = binary.BigEndian.Uint32(body[0:4])
	nameLen := int(binary.BigEndian.Uint16(body[4:6]))
	if len(body) < 6+nameLen+2 {
		return 0, nil, ErrTruncated
	}
	b := body[6+nameLen:]
	count := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	for i := 0; i < count; i++ {
		if len(b) < 1 {
			return 0, nil, ErrTruncated
		}
		typ := b[0]
		b = b[1:]
		var p PeerEntry
		addrLen, asLen := 4, 2
		if typ&0x01 != 0 {
			addrLen = 16
		}
		if typ&0x02 != 0 {
			asLen = 4
		}
		need := 4 + addrLen + asLen
		if len(b) < need {
			return 0, nil, ErrTruncated
		}
		p.ID = binary.BigEndian.Uint32(b[0:4])
		if addrLen == 4 {
			p.IP = binary.BigEndian.Uint32(b[4:8])
		}
		if asLen == 4 {
			p.AS = binary.BigEndian.Uint32(b[4+addrLen:])
		} else {
			p.AS = uint32(binary.BigEndian.Uint16(b[4+addrLen:]))
		}
		b = b[need:]
		peers = append(peers, p)
	}
	return collectorID, peers, nil
}
