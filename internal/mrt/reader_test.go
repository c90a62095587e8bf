package mrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"swift/internal/bgp"
	"swift/internal/event"
	"swift/internal/netaddr"
)

// rawRecord frames body as one MRT record.
func rawRecord(typ, subtype uint16, body []byte) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.writeRecord(time.Unix(1_700_000_000, 0), typ, subtype, body); err != nil {
		panic(err)
	}
	w.Flush()
	return buf.Bytes()
}

// seedRecords returns one BGP4MP, one BGP4MP_ET and one TABLE_DUMP_V2
// record.
func seedRecords(tb testing.TB) (bgp4mp, et, rib []byte) {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	u := &bgp.Update{
		Attrs: bgp.Attrs{ASPath: []uint32{65001, 3356}, HasNextHop: true, NextHop: 1},
		NLRI:  []netaddr.Prefix{netaddr.MustParsePrefix("192.0.2.0/24")},
	}
	if err := w.WriteBGP4MP(time.Unix(1_700_000_000, 0), 65001, 64512, 3, 4, u); err != nil {
		tb.Fatal(err)
	}
	w.Flush()
	bgp4mp = bytes.Clone(buf.Bytes())
	et = rawRecord(TypeBGP4MPET, SubtypeBGP4MPMessageAS4, append([]byte{0, 7, 0xa1, 0x20}, bgp4mp[recordHeaderLen:]...))

	buf.Reset()
	rec := &RIBRecord{Prefix: u.NLRI[0], Entries: []RIBEntry{{Originated: time.Unix(1_600_000_000, 0), Attrs: u.Attrs}}}
	if err := w.WriteRIBIPv4(time.Unix(1_700_000_000, 0), rec); err != nil {
		tb.Fatal(err)
	}
	w.Flush()
	return bgp4mp, et, bytes.Clone(buf.Bytes())
}

// twoReads hands out its data in two reads, cut at split.
type twoReads struct {
	data  []byte
	split int
	off   int
}

func (s *twoReads) Read(p []byte) (int, error) {
	if s.off >= len(s.data) {
		return 0, io.EOF
	}
	end := len(s.data)
	if s.off < s.split && s.split < end {
		end = s.split
	}
	n := copy(p, s.data[s.off:end])
	s.off += n
	return n, nil
}

// FuzzMRTReader feeds the reusing reader arbitrary bytes split across
// two reads. It must frame exactly what a naive reference framer frames
// (same types, same bodies, same stopping point), and decoding whatever
// it framed — as BGP4MP or as a RIB record — must not panic.
func FuzzMRTReader(f *testing.F) {
	bgp4mp, et, rib := seedRecords(f)
	f.Add(bgp4mp, uint16(0))
	f.Add(et, uint16(14))
	f.Add(rib, uint16(5))
	f.Add(append(append(bytes.Clone(rib), bgp4mp...), et...), uint16(len(rib)+3))
	huge := bytes.Clone(bgp4mp)
	binary.BigEndian.PutUint32(huge[8:12], 1<<24) // 16 MiB promised, a few bytes delivered
	f.Add(huge, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		r := NewReader(&twoReads{data: data, split: int(split)})
		rest := data
		var msg BGP4MPMessage
		var rr RIBRecord
		var dec bgp.UpdateDecoder
		for {
			rec, err := r.Next()
			if len(rest) == 0 {
				if err != io.EOF {
					t.Fatalf("at end of stream: err = %v, want io.EOF", err)
				}
				return
			}
			if len(rest) < recordHeaderLen {
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("with %d bytes left: err = %v, want ErrTruncated", len(rest), err)
				}
				return
			}
			blen := int(binary.BigEndian.Uint32(rest[8:12]))
			typ := binary.BigEndian.Uint16(rest[4:6])
			if blen > 1<<24 || recordHeaderLen+blen > len(rest) || typ == TypeBGP4MPET && blen < 4 {
				if err == nil {
					t.Fatalf("record claiming %d bytes with %d left was accepted", blen, len(rest)-recordHeaderLen)
				}
				return
			}
			if err != nil {
				t.Fatalf("record of %d bytes with %d left: %v", blen, len(rest)-recordHeaderLen, err)
			}
			want := rest[recordHeaderLen : recordHeaderLen+blen]
			if typ == TypeBGP4MPET {
				typ, want = TypeBGP4MP, want[4:]
			}
			if rec.Type != typ || rec.Subtype != binary.BigEndian.Uint16(rest[6:8]) || !bytes.Equal(rec.Body, want) {
				t.Fatalf("record type %d/%d with %d body bytes does not match the stream", rec.Type, rec.Subtype, len(rec.Body))
			}
			_ = decodeBGP4MP(rec, &msg)
			_ = decodeRIBIPv4Into(rec.Body, &rr, &dec)
			rest = rest[recordHeaderLen+blen:]
		}
	})
}

// TestReaderLargeRecord covers the spill path: a record larger than the
// read buffer arrives whole, and the stream stays aligned behind it.
func TestReaderLargeRecord(t *testing.T) {
	big := make([]byte, 200<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	bgp4mp, _, _ := seedRecords(t)
	stream := append(rawRecord(99, 1, big), bgp4mp...)
	r := NewReader(bytes.NewReader(stream))
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != 99 || !bytes.Equal(rec.Body, big) {
		t.Fatalf("large record: type %d, %d body bytes, content equal %v", rec.Type, len(rec.Body), bytes.Equal(rec.Body, big))
	}
	m, err := r.NextBGP4MP()
	if err != nil || m.PeerAS != 65001 {
		t.Fatalf("record after the large one: %+v, %v", m, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v", err)
	}
}

// TestReaderDoesNotTrustLength is the hostile-input bound: a header
// promising 16 MiB over a stream that ends after a few bytes must cost
// memory in proportion to the bytes that arrived, not to the promise.
func TestReaderDoesNotTrustLength(t *testing.T) {
	bgp4mp, _, _ := seedRecords(t)
	lie := bytes.Clone(bgp4mp)
	binary.BigEndian.PutUint32(lie[8:12], 1<<24)
	r := NewReader(bytes.NewReader(lie))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := r.Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("reading a %d-byte stream allocated %d bytes", len(lie), grew)
	}
}

// TestSourceRunAllocs pins the MRT half of the heap-free ingest path:
// replaying a BGP4MP archive costs the batches handed to the sink and
// the path arena's chunks, nothing per record.
func TestSourceRunAllocs(t *testing.T) {
	const records = 10_000
	var buf bytes.Buffer
	w := NewWriter(&buf)
	u := &bgp.Update{
		Attrs: bgp.Attrs{ASPath: []uint32{65001, 3356, 15169}, HasNextHop: true, NextHop: 1},
		NLRI:  make([]netaddr.Prefix, 1),
	}
	for i := 0; i < records; i++ {
		u.NLRI[0] = netaddr.PrefixFor(100, i%4096)
		if err := w.WriteBGP4MP(time.Unix(int64(1_700_000_000+i/100), 0), 65001, 64512, 3, 4, u); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	archive := bytes.NewReader(buf.Bytes())
	events := 0
	sink := event.SinkFunc(func(b event.Batch) error {
		events += len(b)
		return nil
	})
	src := &Source{Updates: archive}
	allocs := testing.AllocsPerRun(5, func() {
		archive.Reset(buf.Bytes())
		if err := src.Run(sink); err != nil {
			t.Fatal(err)
		}
	})
	if events != 6*records {
		t.Fatalf("sink saw %d events over 6 runs, want %d", events, 6*records)
	}
	t.Logf("Source.Run: %v objects per %d records", allocs, records)
	if per1000 := allocs / (records / 1000); per1000 > 5 {
		t.Errorf("Source.Run allocates %.1f objects per 1,000 records, want <= 5", per1000)
	}
}
