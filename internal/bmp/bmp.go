// Package bmp implements the BGP Monitoring Protocol version 3
// (RFC 7854), the export format real routers use to stream every
// peer's BGP feed to a collector over a single TCP connection. It is
// the multi-peer ingestion substrate of the SWIFT reproduction: a
// monitored router opens one connection to a bmp.Station, announces
// each of its peers with Peer Up, and then forwards each peer's
// UPDATEs as Route Monitoring messages — which the station demuxes
// into a fleet of per-peer SWIFT engines.
//
// The codec covers the message types a SWIFT deployment consumes:
// Initiation, Termination, Peer Up, Peer Down, Route Monitoring and
// Stats Report. Embedded BGP PDUs (OPENs inside Peer Up, UPDATEs
// inside Route Monitoring, NOTIFICATIONs inside Peer Down) reuse the
// internal/bgp wire codec, including its allocation-free
// UpdateDecoder for the hot Route Monitoring path.
package bmp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"swift/internal/bgp"
)

// Protocol constants (RFC 7854 §4).
const (
	Version       = 3
	HeaderLen     = 6  // version + length + type
	PeerHeaderLen = 42 // the per-peer header of peer-scoped messages
	// MaxMsgLen caps one BMP message. The RFC sets no limit; Peer Up
	// carries two whole OPENs and Route Monitoring one UPDATE, so 64 KiB
	// is generous and bounds a malicious length field.
	MaxMsgLen = 1 << 16
)

// BMP message types (RFC 7854 §4.1).
const (
	TypeRouteMonitoring = 0
	TypeStatsReport     = 1
	TypePeerDown        = 2
	TypePeerUp          = 3
	TypeInitiation      = 4
	TypeTermination     = 5
	TypeRouteMirroring  = 6
)

// Peer types (§4.2).
const (
	PeerTypeGlobal = 0
	PeerTypeRD     = 1
	PeerTypeLocal  = 2
)

// Peer flags (§4.2).
const (
	PeerFlagV = 0x80 // IPv6 peer address
	PeerFlagL = 0x40 // post-policy Adj-RIB-In
	PeerFlagA = 0x20 // legacy 2-byte AS_PATH format
)

// Information TLV types (§4.4), used by Initiation and Peer Up.
const (
	InfoString   = 0
	InfoSysDescr = 1
	InfoSysName  = 2
)

// Termination TLV types and reasons (§4.5).
const (
	TermInfoString = 0
	TermInfoReason = 1

	ReasonAdminClose    = 0
	ReasonUnspecified   = 1
	ReasonOutOfResource = 2
	ReasonRedundant     = 3
	ReasonPermAdmin     = 4
)

// Peer Down reasons (§4.9).
const (
	DownLocalNotification    = 1 // local close; NOTIFICATION follows
	DownLocalNoNotification  = 2 // local close; FSM event code follows
	DownRemoteNotification   = 3 // remote close; NOTIFICATION follows
	DownRemoteNoNotification = 4
	DownDeconfigured         = 5 // monitoring stopped for this peer
)

// Wire-format errors.
var (
	ErrShortMessage = errors.New("bmp: message truncated")
	ErrBadVersion   = errors.New("bmp: unsupported version")
	ErrBadLength    = errors.New("bmp: bad message length")
	ErrBadType      = errors.New("bmp: unknown message type")
)

// PeerHeader is the 42-byte per-peer header carried by every
// peer-scoped message (§4.2). Addresses are kept in wire form (16
// bytes, IPv4 in the low 4 when the V flag is clear) so encoding
// round-trips exactly; the IPv4 helpers cover this repository's
// v4-only data path.
type PeerHeader struct {
	PeerType      uint8
	Flags         uint8
	Distinguisher uint64
	Addr          [16]byte
	AS            uint32
	BGPID         uint32
	Seconds       uint32 // timestamp, seconds since the epoch
	Micros        uint32 // timestamp, microsecond remainder
}

// IPv4 returns the peer address as a v4 integer (valid when the V flag
// is clear).
func (h *PeerHeader) IPv4() uint32 { return binary.BigEndian.Uint32(h.Addr[12:16]) }

// SetIPv4 stores a v4 peer address in wire position.
func (h *PeerHeader) SetIPv4(a uint32) {
	h.Addr = [16]byte{}
	binary.BigEndian.PutUint32(h.Addr[12:16], a)
}

// Timestamp returns the header timestamp (zero time when unset).
func (h *PeerHeader) Timestamp() time.Time {
	if h.Seconds == 0 && h.Micros == 0 {
		return time.Time{}
	}
	return time.Unix(int64(h.Seconds), int64(h.Micros)*1000).UTC()
}

// SetTimestamp stores t in the seconds/microseconds pair.
func (h *PeerHeader) SetTimestamp(t time.Time) {
	if t.IsZero() {
		h.Seconds, h.Micros = 0, 0
		return
	}
	h.Seconds = uint32(t.Unix())
	h.Micros = uint32(t.Nanosecond() / 1000)
}

func (h *PeerHeader) appendWire(dst []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, PeerHeaderLen)...)
	b := dst[off:]
	b[0] = h.PeerType
	b[1] = h.Flags
	binary.BigEndian.PutUint64(b[2:10], h.Distinguisher)
	copy(b[10:26], h.Addr[:])
	binary.BigEndian.PutUint32(b[26:30], h.AS)
	binary.BigEndian.PutUint32(b[30:34], h.BGPID)
	binary.BigEndian.PutUint32(b[34:38], h.Seconds)
	binary.BigEndian.PutUint32(b[38:42], h.Micros)
	return dst
}

// ParsePeerHeader decodes the per-peer header at the start of a
// peer-scoped message body and returns the remainder.
func ParsePeerHeader(b []byte, h *PeerHeader) ([]byte, error) {
	if len(b) < PeerHeaderLen {
		return nil, ErrShortMessage
	}
	h.PeerType = b[0]
	h.Flags = b[1]
	h.Distinguisher = binary.BigEndian.Uint64(b[2:10])
	copy(h.Addr[:], b[10:26])
	h.AS = binary.BigEndian.Uint32(b[26:30])
	h.BGPID = binary.BigEndian.Uint32(b[30:34])
	h.Seconds = binary.BigEndian.Uint32(b[34:38])
	h.Micros = binary.BigEndian.Uint32(b[38:42])
	return b[PeerHeaderLen:], nil
}

// Message is any encodable BMP message.
type Message interface {
	// BMPType returns the RFC 7854 message type code.
	BMPType() uint8
	// AppendWire appends the complete wire encoding (common header
	// included) to dst and returns the extended slice.
	AppendWire(dst []byte) ([]byte, error)
}

// finishMessage writes the common header for the message encoded at
// dst[off:] and validates the total length.
func finishMessage(dst []byte, off int, typ uint8) ([]byte, error) {
	total := len(dst) - off
	if total > MaxMsgLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadLength, total)
	}
	dst[off] = Version
	binary.BigEndian.PutUint32(dst[off+1:off+5], uint32(total))
	dst[off+5] = typ
	return dst, nil
}

func appendCommonHeader(dst []byte) []byte {
	return append(dst, make([]byte, HeaderLen)...)
}

// TLV is one Information TLV (§4.4).
type TLV struct {
	Type  uint16
	Value []byte
}

func appendTLV(dst []byte, typ uint16, val []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:2], typ)
	binary.BigEndian.PutUint16(hdr[2:4], uint16(len(val)))
	dst = append(dst, hdr[:]...)
	return append(dst, val...)
}

func parseTLVs(b []byte) ([]TLV, error) {
	var out []TLV
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, ErrShortMessage
		}
		typ := binary.BigEndian.Uint16(b[0:2])
		vlen := int(binary.BigEndian.Uint16(b[2:4]))
		if len(b) < 4+vlen {
			return nil, ErrShortMessage
		}
		out = append(out, TLV{Type: typ, Value: append([]byte(nil), b[4:4+vlen]...)})
		b = b[4+vlen:]
	}
	return out, nil
}

// Initiation announces the monitored router to the station (§4.3).
type Initiation struct {
	SysName  string
	SysDescr string
	// Info carries any additional free-form InfoString TLVs.
	Info []string
}

// BMPType implements Message.
func (*Initiation) BMPType() uint8 { return TypeInitiation }

// AppendWire implements Message.
func (m *Initiation) AppendWire(dst []byte) ([]byte, error) {
	off := len(dst)
	dst = appendCommonHeader(dst)
	if m.SysDescr != "" {
		dst = appendTLV(dst, InfoSysDescr, []byte(m.SysDescr))
	}
	if m.SysName != "" {
		dst = appendTLV(dst, InfoSysName, []byte(m.SysName))
	}
	for _, s := range m.Info {
		dst = appendTLV(dst, InfoString, []byte(s))
	}
	return finishMessage(dst, off, TypeInitiation)
}

// Decode parses an Initiation body (everything after the common header).
func (m *Initiation) Decode(body []byte) error {
	tlvs, err := parseTLVs(body)
	if err != nil {
		return err
	}
	m.SysName, m.SysDescr, m.Info = "", "", nil
	for _, t := range tlvs {
		switch t.Type {
		case InfoSysName:
			m.SysName = string(t.Value)
		case InfoSysDescr:
			m.SysDescr = string(t.Value)
		case InfoString:
			m.Info = append(m.Info, string(t.Value))
		}
	}
	return nil
}

// Termination closes the monitoring session (§4.5).
type Termination struct {
	Reason uint16
	// Info carries free-form TermInfoString TLVs.
	Info []string
}

// BMPType implements Message.
func (*Termination) BMPType() uint8 { return TypeTermination }

// AppendWire implements Message.
func (m *Termination) AppendWire(dst []byte) ([]byte, error) {
	off := len(dst)
	dst = appendCommonHeader(dst)
	var reason [2]byte
	binary.BigEndian.PutUint16(reason[:], m.Reason)
	dst = appendTLV(dst, TermInfoReason, reason[:])
	for _, s := range m.Info {
		dst = appendTLV(dst, TermInfoString, []byte(s))
	}
	return finishMessage(dst, off, TypeTermination)
}

// Decode parses a Termination body.
func (m *Termination) Decode(body []byte) error {
	tlvs, err := parseTLVs(body)
	if err != nil {
		return err
	}
	m.Reason, m.Info = 0, nil
	for _, t := range tlvs {
		switch t.Type {
		case TermInfoReason:
			if len(t.Value) != 2 {
				return fmt.Errorf("%w: termination reason length %d", ErrBadLength, len(t.Value))
			}
			m.Reason = binary.BigEndian.Uint16(t.Value)
		case TermInfoString:
			m.Info = append(m.Info, string(t.Value))
		}
	}
	return nil
}

// PeerUp reports a monitored peer session coming up (§4.10). The two
// embedded OPENs are the ones the router sent and received on that
// session.
type PeerUp struct {
	Peer       PeerHeader
	LocalAddr  [16]byte
	LocalPort  uint16
	RemotePort uint16
	SentOpen   *bgp.Open
	RecvOpen   *bgp.Open
}

// BMPType implements Message.
func (*PeerUp) BMPType() uint8 { return TypePeerUp }

// AppendWire implements Message.
func (m *PeerUp) AppendWire(dst []byte) ([]byte, error) {
	off := len(dst)
	dst = appendCommonHeader(dst)
	dst = m.Peer.appendWire(dst)
	dst = append(dst, m.LocalAddr[:]...)
	var ports [4]byte
	binary.BigEndian.PutUint16(ports[0:2], m.LocalPort)
	binary.BigEndian.PutUint16(ports[2:4], m.RemotePort)
	dst = append(dst, ports[:]...)
	for _, o := range []*bgp.Open{m.SentOpen, m.RecvOpen} {
		if o == nil {
			return nil, errors.New("bmp: peer up requires both OPENs")
		}
		var err error
		dst, err = o.AppendWire(dst)
		if err != nil {
			return nil, err
		}
	}
	return finishMessage(dst, off, TypePeerUp)
}

// Decode parses a Peer Up body.
func (m *PeerUp) Decode(body []byte) error {
	b, err := ParsePeerHeader(body, &m.Peer)
	if err != nil {
		return err
	}
	if len(b) < 20 {
		return ErrShortMessage
	}
	copy(m.LocalAddr[:], b[0:16])
	m.LocalPort = binary.BigEndian.Uint16(b[16:18])
	m.RemotePort = binary.BigEndian.Uint16(b[18:20])
	b = b[20:]
	for _, dst := range []**bgp.Open{&m.SentOpen, &m.RecvOpen} {
		var pdu []byte
		if pdu, b, err = embedded(b, bgp.TypeOpen, "OPEN"); err != nil {
			return err
		}
		o := new(bgp.Open)
		if err := o.Decode(pdu); err != nil {
			return fmt.Errorf("bmp: embedded OPEN: %w", err)
		}
		*dst = o
	}
	return nil
}

// embedded splits the BGP message of type typ off the front of b and
// returns its body and whatever follows it.
func embedded(b []byte, typ uint8, what string) (body, rest []byte, err error) {
	h, err := bgp.ParseHeader(b)
	if err != nil {
		return nil, nil, fmt.Errorf("bmp: embedded %s header: %w", what, err)
	}
	if h.Type != typ || len(b) < int(h.Len) {
		return nil, nil, fmt.Errorf("%w: embedded %s", ErrShortMessage, what)
	}
	return b[bgp.HeaderLen:h.Len], b[h.Len:], nil
}

// PeerDown reports a monitored peer session going down (§4.9).
type PeerDown struct {
	Peer   PeerHeader
	Reason uint8
	// Notification is set for reasons 1 and 3.
	Notification *bgp.Notification
	// FSMEvent is set for reason 2.
	FSMEvent uint16
}

// BMPType implements Message.
func (*PeerDown) BMPType() uint8 { return TypePeerDown }

// AppendWire implements Message.
func (m *PeerDown) AppendWire(dst []byte) ([]byte, error) {
	off := len(dst)
	dst = appendCommonHeader(dst)
	dst = m.Peer.appendWire(dst)
	dst = append(dst, m.Reason)
	switch m.Reason {
	case DownLocalNotification, DownRemoteNotification:
		if m.Notification == nil {
			return nil, errors.New("bmp: peer down reason requires a NOTIFICATION")
		}
		var err error
		dst, err = m.Notification.AppendWire(dst)
		if err != nil {
			return nil, err
		}
	case DownLocalNoNotification:
		var ev [2]byte
		binary.BigEndian.PutUint16(ev[:], m.FSMEvent)
		dst = append(dst, ev[:]...)
	}
	return finishMessage(dst, off, TypePeerDown)
}

// Decode parses a Peer Down body.
func (m *PeerDown) Decode(body []byte) error {
	b, err := ParsePeerHeader(body, &m.Peer)
	if err != nil {
		return err
	}
	if len(b) < 1 {
		return ErrShortMessage
	}
	m.Reason = b[0]
	m.Notification, m.FSMEvent = nil, 0
	b = b[1:]
	switch m.Reason {
	case DownLocalNotification, DownRemoteNotification:
		pdu, _, err := embedded(b, bgp.TypeNotification, "NOTIFICATION")
		if err != nil {
			return err
		}
		n := new(bgp.Notification)
		if err := n.Decode(pdu); err != nil {
			return err
		}
		m.Notification = n
	case DownLocalNoNotification:
		if len(b) < 2 {
			return ErrShortMessage
		}
		m.FSMEvent = binary.BigEndian.Uint16(b[0:2])
	}
	return nil
}

// RouteMonitoring forwards one UPDATE from a monitored peer (§4.6).
// This is the hot message type: a collector session is almost entirely
// Route Monitoring.
type RouteMonitoring struct {
	Peer   PeerHeader
	Update *bgp.Update
}

// BMPType implements Message.
func (*RouteMonitoring) BMPType() uint8 { return TypeRouteMonitoring }

// AppendWire implements Message.
func (m *RouteMonitoring) AppendWire(dst []byte) ([]byte, error) {
	off := len(dst)
	dst = appendCommonHeader(dst)
	dst = m.Peer.appendWire(dst)
	if m.Update == nil {
		return nil, errors.New("bmp: route monitoring requires an UPDATE")
	}
	var err error
	dst, err = m.Update.AppendWire(dst)
	if err != nil {
		return nil, err
	}
	return finishMessage(dst, off, TypeRouteMonitoring)
}

// Decode parses a Route Monitoring body, allocating a fresh Update.
// Hot paths should use ParsePeerHeader plus a reusable
// bgp.UpdateDecoder instead (see Station).
func (m *RouteMonitoring) Decode(body []byte) error {
	b, err := ParsePeerHeader(body, &m.Peer)
	if err != nil {
		return err
	}
	pdu, _, err := embedded(b, bgp.TypeUpdate, "UPDATE")
	if err != nil {
		return err
	}
	u := new(bgp.Update)
	if err := u.Decode(pdu); err != nil {
		return err
	}
	m.Update = u
	return nil
}

// Stat is one statistics TLV (§4.8).
type Stat struct {
	Type  uint16
	Value uint64
}

// Stats Report TLV types this package knows the width of; gauges are
// 8 bytes, counters 4 (§4.8).
const (
	StatRejected    = 0 // counter: prefixes rejected by inbound policy
	StatDupPrefix   = 1 // counter: duplicate prefix advertisements
	StatDupWithdraw = 2 // counter: duplicate withdraws
	StatAdjRIBIn    = 7 // gauge: routes in Adj-RIB-In
	StatLocRIB      = 8 // gauge: routes in Loc-RIB
)

func statIsGauge(typ uint16) bool { return typ == StatAdjRIBIn || typ == StatLocRIB }

// StatsReport carries periodic per-peer counters (§4.8).
type StatsReport struct {
	Peer  PeerHeader
	Stats []Stat
}

// BMPType implements Message.
func (*StatsReport) BMPType() uint8 { return TypeStatsReport }

// AppendWire implements Message.
func (m *StatsReport) AppendWire(dst []byte) ([]byte, error) {
	off := len(dst)
	dst = appendCommonHeader(dst)
	dst = m.Peer.appendWire(dst)
	var count [4]byte
	binary.BigEndian.PutUint32(count[:], uint32(len(m.Stats)))
	dst = append(dst, count[:]...)
	for _, s := range m.Stats {
		if statIsGauge(s.Type) {
			var v [8]byte
			binary.BigEndian.PutUint64(v[:], s.Value)
			dst = appendTLV(dst, s.Type, v[:])
		} else {
			if s.Value > 0xffffffff {
				return nil, fmt.Errorf("bmp: stat %d overflows its 32-bit counter", s.Type)
			}
			var v [4]byte
			binary.BigEndian.PutUint32(v[:], uint32(s.Value))
			dst = appendTLV(dst, s.Type, v[:])
		}
	}
	return finishMessage(dst, off, TypeStatsReport)
}

// Decode parses a Stats Report body. Unknown stat widths other than 4
// or 8 bytes are skipped, as the RFC instructs.
func (m *StatsReport) Decode(body []byte) error {
	b, err := ParsePeerHeader(body, &m.Peer)
	if err != nil {
		return err
	}
	if len(b) < 4 {
		return ErrShortMessage
	}
	count := int(binary.BigEndian.Uint32(b[0:4]))
	b = b[4:]
	m.Stats = m.Stats[:0]
	for i := 0; i < count; i++ {
		if len(b) < 4 {
			return ErrShortMessage
		}
		typ := binary.BigEndian.Uint16(b[0:2])
		vlen := int(binary.BigEndian.Uint16(b[2:4]))
		if len(b) < 4+vlen {
			return ErrShortMessage
		}
		val := b[4 : 4+vlen]
		switch vlen {
		case 4:
			m.Stats = append(m.Stats, Stat{Type: typ, Value: uint64(binary.BigEndian.Uint32(val))})
		case 8:
			m.Stats = append(m.Stats, Stat{Type: typ, Value: binary.BigEndian.Uint64(val)})
		}
		b = b[4+vlen:]
	}
	return nil
}

// WriteMessage encodes m and writes it to w.
func WriteMessage(w io.Writer, m Message) error {
	buf, err := m.AppendWire(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// DecodeMessage decodes one message body (everything after the common
// header) into a typed value. Route Mirroring is recognized but
// returned as nil: SWIFT has no use for mirrored PDUs.
func DecodeMessage(typ uint8, body []byte) (Message, error) {
	switch typ {
	case TypeRouteMonitoring:
		m := new(RouteMonitoring)
		return m, m.Decode(body)
	case TypeStatsReport:
		m := new(StatsReport)
		return m, m.Decode(body)
	case TypePeerDown:
		m := new(PeerDown)
		return m, m.Decode(body)
	case TypePeerUp:
		m := new(PeerUp)
		return m, m.Decode(body)
	case TypeInitiation:
		m := new(Initiation)
		return m, m.Decode(body)
	case TypeTermination:
		m := new(Termination)
		return m, m.Decode(body)
	case TypeRouteMirroring:
		return nil, nil
	}
	return nil, fmt.Errorf("%w: %d", ErrBadType, typ)
}

// Reader frames BMP messages off a stream without copying them: Next
// returns a view into the read buffer, valid only until the next call,
// which is what a demuxing hot loop wants (zero allocation per frame).
// The buffer is MaxMsgLen bytes, so a whole frame always fits.
type Reader struct {
	br *bufio.Reader
	// skip is the length of the frame the last Next returned. It is
	// discarded on the following call, not before, so the view stays
	// valid in between.
	skip int
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, MaxMsgLen)}
}

// Next returns the next message's type and body. io.EOF marks a clean
// end of stream between messages.
func (r *Reader) Next() (typ uint8, body []byte, err error) {
	r.br.Discard(r.skip) // cannot fail: the frame was peeked whole
	r.skip = 0
	hdr, err := r.br.Peek(HeaderLen)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			return 0, nil, ErrShortMessage
		}
		return 0, nil, err
	}
	if hdr[0] != Version {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, hdr[0])
	}
	total := binary.BigEndian.Uint32(hdr[1:5])
	if total < HeaderLen || total > MaxMsgLen {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadLength, total)
	}
	frame, err := r.br.Peek(int(total))
	if err != nil {
		return 0, nil, ErrShortMessage
	}
	r.skip = int(total)
	return frame[5], frame[HeaderLen:], nil
}

// Buffered reports how many bytes past the current frame sit in the
// read buffer — the demux loop flushes its batches when it is zero.
func (r *Reader) Buffered() int { return r.br.Buffered() - r.skip }

// Ready reports whether the buffer already holds all the bytes the next
// frame's length field asks for, so Next returns without reading from
// the stream. A read-burst lasts while Ready holds; a header Next will
// reject may end one early, and then the following Next rejects it.
func (r *Reader) Ready() bool {
	n := r.Buffered()
	if n < HeaderLen {
		return false
	}
	b, _ := r.br.Peek(r.skip + HeaderLen) // buffered: no read, no error
	return uint64(binary.BigEndian.Uint32(b[r.skip+1:])) <= uint64(n)
}

// ReadMessage reads and decodes the next message off rd, allocating
// fresh storage (the convenience path; hot loops use Next plus
// ParsePeerHeader directly).
func ReadMessage(rd *Reader) (Message, error) {
	typ, body, err := rd.Next()
	if err != nil {
		return nil, err
	}
	return DecodeMessage(typ, body)
}
