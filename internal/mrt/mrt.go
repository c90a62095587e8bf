// Package mrt implements the MRT export format (RFC 6396) subset used by
// RouteViews and RIPE RIS archives: BGP4MP_MESSAGE(_AS4) update records
// and TABLE_DUMP_V2 RIB snapshots. The SWIFT evaluation consumes BGP
// traces in exactly this shape; the synthetic trace generator writes MRT
// so the whole pipeline exercises the same parsing path it would with
// real collector archives.
package mrt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"swift/internal/bgp"
)

// MRT record types and subtypes (RFC 6396).
const (
	TypeTableDumpV2 = 13
	TypeBGP4MP      = 16
	TypeBGP4MPET    = 17 // extended (microsecond) timestamps

	SubtypePeerIndexTable = 1
	SubtypeRIBIPv4Unicast = 2

	SubtypeBGP4MPMessage    = 1
	SubtypeBGP4MPMessageAS4 = 4
)

// Errors returned by the reader.
var (
	ErrTruncated   = errors.New("mrt: truncated record")
	ErrUnsupported = errors.New("mrt: unsupported record")
)

// Record is one MRT record: the common header plus its undecoded body.
type Record struct {
	Timestamp time.Time
	Type      uint16
	Subtype   uint16
	Body      []byte
}

// BGP4MPMessage is a decoded BGP4MP_MESSAGE(_AS4) record: one BGP message
// as seen on a collector's peering session.
type BGP4MPMessage struct {
	Timestamp time.Time
	PeerAS    uint32
	LocalAS   uint32
	PeerIP    uint32
	LocalIP   uint32
	// Header and Body are the embedded BGP message.
	Header bgp.Header
	Body   []byte
}

// Writer emits MRT records.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Flush flushes buffered records.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

func (w *Writer) writeRecord(ts time.Time, typ, subtype uint16, body []byte) error {
	if w.err != nil {
		return w.err
	}
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(ts.Unix()))
	binary.BigEndian.PutUint16(hdr[4:6], typ)
	binary.BigEndian.PutUint16(hdr[6:8], subtype)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(body)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(body); err != nil {
		w.err = err
		return err
	}
	return nil
}

// WriteBGP4MP writes one BGP message as a BGP4MP_MESSAGE_AS4 record.
func (w *Writer) WriteBGP4MP(ts time.Time, peerAS, localAS, peerIP, localIP uint32, msg bgp.Message) error {
	wire, err := msg.AppendWire(nil)
	if err != nil {
		return err
	}
	body := make([]byte, 20, 20+len(wire))
	binary.BigEndian.PutUint32(body[0:4], peerAS)
	binary.BigEndian.PutUint32(body[4:8], localAS)
	// interface index 0, AFI 1 (IPv4)
	binary.BigEndian.PutUint16(body[10:12], 1)
	binary.BigEndian.PutUint32(body[12:16], peerIP)
	binary.BigEndian.PutUint32(body[16:20], localIP)
	body = append(body, wire...)
	return w.writeRecord(ts, TypeBGP4MP, SubtypeBGP4MPMessageAS4, body)
}

// recordHeaderLen is the MRT common header: timestamp, type, subtype,
// body length.
const recordHeaderLen = 12

// Reader decodes MRT records from a stream without allocating per
// record: Next and NextBGP4MP return the reader's own Record and
// BGP4MPMessage, whose bodies are views into the read buffer. Both are
// valid only until the next call; callers keeping anything copy it.
type Reader struct {
	r *bufio.Reader
	// skip is the length of the buffered record the last Next returned,
	// discarded on the following call so the view stays valid until then.
	skip int
	rec  Record
	msg  BGP4MPMessage
	// big holds a record too large for the read buffer. It grows as the
	// record's bytes arrive, never on the word of the length field.
	big bytes.Buffer
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next raw record, or io.EOF at end of stream.
func (r *Reader) Next() (*Record, error) {
	r.r.Discard(r.skip) // cannot fail: the record was peeked whole
	r.skip = 0
	hdr, err := r.r.Peek(recordHeaderLen)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			return nil, ErrTruncated
		}
		return nil, err
	}
	rec := &r.rec
	rec.Timestamp = time.Unix(int64(binary.BigEndian.Uint32(hdr[0:4])), 0).UTC()
	rec.Type = binary.BigEndian.Uint16(hdr[4:6])
	rec.Subtype = binary.BigEndian.Uint16(hdr[6:8])
	blen := int(binary.BigEndian.Uint32(hdr[8:12]))
	if blen > 1<<24 {
		return nil, fmt.Errorf("mrt: implausible record length %d", blen)
	}
	if total := recordHeaderLen + blen; total <= r.r.Size() {
		whole, err := r.r.Peek(total)
		if err != nil {
			return nil, ErrTruncated
		}
		r.skip = total
		rec.Body = whole[recordHeaderLen:]
	} else {
		r.r.Discard(recordHeaderLen) // peeked above
		r.big.Reset()
		if _, err := io.CopyN(&r.big, r.r, int64(blen)); err != nil {
			return nil, ErrTruncated
		}
		rec.Body = r.big.Bytes()
	}
	if rec.Type == TypeBGP4MPET {
		// Extended-timestamp records carry 4 extra microsecond bytes
		// before the message body.
		if len(rec.Body) < 4 {
			return nil, ErrTruncated
		}
		us := binary.BigEndian.Uint32(rec.Body[0:4])
		rec.Timestamp = rec.Timestamp.Add(time.Duration(us) * time.Microsecond)
		rec.Type = TypeBGP4MP
		rec.Body = rec.Body[4:]
	}
	return rec, nil
}

// NextBGP4MP scans forward to the next BGP4MP message record and decodes
// it. Non-BGP4MP records are skipped; io.EOF signals end of stream.
func (r *Reader) NextBGP4MP() (*BGP4MPMessage, error) {
	for {
		rec, err := r.Next()
		if err != nil {
			return nil, err
		}
		if rec.Type != TypeBGP4MP {
			continue
		}
		switch rec.Subtype {
		case SubtypeBGP4MPMessage, SubtypeBGP4MPMessageAS4:
		default:
			continue
		}
		if err := decodeBGP4MP(rec, &r.msg); err != nil {
			return nil, err
		}
		return &r.msg, nil
	}
}

// decodeBGP4MP decodes rec into m, whose Body aliases rec's.
func decodeBGP4MP(rec *Record, m *BGP4MPMessage) error {
	b := rec.Body
	asLen := 4
	if rec.Subtype == SubtypeBGP4MPMessage {
		asLen = 2
	}
	need := 2*asLen + 4 // ASes + ifindex + AFI
	if len(b) < need {
		return ErrTruncated
	}
	*m = BGP4MPMessage{Timestamp: rec.Timestamp}
	if asLen == 4 {
		m.PeerAS = binary.BigEndian.Uint32(b[0:4])
		m.LocalAS = binary.BigEndian.Uint32(b[4:8])
	} else {
		m.PeerAS = uint32(binary.BigEndian.Uint16(b[0:2]))
		m.LocalAS = uint32(binary.BigEndian.Uint16(b[2:4]))
	}
	b = b[2*asLen:]
	afi := binary.BigEndian.Uint16(b[2:4])
	b = b[4:]
	addrLen := 4
	if afi == 2 {
		addrLen = 16
	}
	if len(b) < 2*addrLen {
		return ErrTruncated
	}
	if afi == 1 {
		m.PeerIP = binary.BigEndian.Uint32(b[0:4])
		m.LocalIP = binary.BigEndian.Uint32(b[4:8])
	}
	b = b[2*addrLen:]
	if afi != 1 {
		return fmt.Errorf("%w: AFI %d", ErrUnsupported, afi)
	}
	h, err := bgp.ParseHeader(b)
	if err != nil {
		return fmt.Errorf("mrt: embedded BGP header: %w", err)
	}
	if len(b) < int(h.Len) {
		return ErrTruncated
	}
	m.Header = h
	m.Body = b[bgp.HeaderLen:h.Len]
	return nil
}
