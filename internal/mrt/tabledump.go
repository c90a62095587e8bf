package mrt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"swift/internal/bgp"
	"swift/internal/netaddr"
)

// PeerEntry is one collector peer in a TABLE_DUMP_V2 PEER_INDEX_TABLE.
type PeerEntry struct {
	ID uint32 // BGP identifier
	IP uint32
	AS uint32
}

// RIBEntry is one (peer, route) pair inside a RIB_IPV4_UNICAST record.
type RIBEntry struct {
	PeerIndex  uint16
	Originated time.Time
	Attrs      bgp.Attrs
}

// RIBRecord is a decoded RIB_IPV4_UNICAST record: every peer's route for
// one prefix.
type RIBRecord struct {
	Sequence uint32
	Prefix   netaddr.Prefix
	Entries  []RIBEntry
}

// WritePeerIndexTable writes the peer index that subsequent RIB records
// reference by position.
func (w *Writer) WritePeerIndexTable(ts time.Time, collectorID uint32, peers []PeerEntry) error {
	body := make([]byte, 6, 6+16*len(peers))
	binary.BigEndian.PutUint32(body[0:4], collectorID)
	// view name length 0
	body = append(body, byte(len(peers)>>8), byte(len(peers)))
	// The 2 bytes appended above are the peer count; bytes 4:6 are the
	// view-name length (zero).
	for _, p := range peers {
		body = append(body, 0x02) // type: AS4, IPv4
		var buf [12]byte
		binary.BigEndian.PutUint32(buf[0:4], p.ID)
		binary.BigEndian.PutUint32(buf[4:8], p.IP)
		binary.BigEndian.PutUint32(buf[8:12], p.AS)
		body = append(body, buf[:]...)
	}
	return w.writeRecord(ts, TypeTableDumpV2, SubtypePeerIndexTable, body)
}

// WriteRIBIPv4 writes one RIB_IPV4_UNICAST record.
func (w *Writer) WriteRIBIPv4(ts time.Time, rec *RIBRecord) error {
	body := make([]byte, 4, 64)
	binary.BigEndian.PutUint32(body[0:4], rec.Sequence)
	body = appendWirePrefix(body, rec.Prefix)
	body = append(body, byte(len(rec.Entries)>>8), byte(len(rec.Entries)))
	for i := range rec.Entries {
		e := &rec.Entries[i]
		var hdr [8]byte
		binary.BigEndian.PutUint16(hdr[0:2], e.PeerIndex)
		binary.BigEndian.PutUint32(hdr[2:6], uint32(e.Originated.Unix()))
		attrs, err := bgp.AppendAttrs(nil, &e.Attrs)
		if err != nil {
			return err
		}
		if len(attrs) > 0xffff {
			return fmt.Errorf("mrt: attributes too long for RIB entry")
		}
		binary.BigEndian.PutUint16(hdr[6:8], uint16(len(attrs)))
		body = append(body, hdr[:]...)
		body = append(body, attrs...)
	}
	return w.writeRecord(ts, TypeTableDumpV2, SubtypeRIBIPv4Unicast, body)
}

// walkRIBIPv4 hands fn the body of every RIB_IPV4_UNICAST record of a
// TABLE_DUMP_V2 file, skipping other record types. It stops at end of
// stream (returning nil), on a read error, or on the first error fn
// returns. The body is a view into the reader's buffer, valid only
// during the call.
func walkRIBIPv4(r io.Reader, fn func(body []byte) error) error {
	rd := NewReader(r)
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if rec.Type != TypeTableDumpV2 || rec.Subtype != SubtypeRIBIPv4Unicast {
			continue
		}
		if err := fn(rec.Body); err != nil {
			return err
		}
	}
}

// WalkRIBIPv4 streams every RIB_IPV4_UNICAST record of a TABLE_DUMP_V2
// file to fn (see walkRIBIPv4 for when it stops). Each record is
// freshly decoded from its own copy of the body — unknown attribute
// values alias it — so fn may retain the record.
func WalkRIBIPv4(r io.Reader, fn func(*RIBRecord) error) error {
	return walkRIBIPv4(r, func(body []byte) error {
		rr, err := DecodeRIBIPv4(bytes.Clone(body))
		if err != nil {
			return err
		}
		return fn(rr)
	})
}

// WalkRIBIPv4Reuse is WalkRIBIPv4 recycling one RIBRecord — entry
// slots, AS-path and community buffers included — across callbacks:
// once the buffers are warm, walking a full-table dump generates no
// per-entry garbage. fn must not retain the record or any slice in it
// past the call. Safe for any consumer that interns or copies what it
// keeps, which is exactly what the provisioning path does: Learn hands
// each path to the RIB's intern pool, so only the first occurrence of
// a path is ever copied.
func WalkRIBIPv4Reuse(r io.Reader, fn func(*RIBRecord) error) error {
	var rr RIBRecord
	var dec bgp.UpdateDecoder
	return walkRIBIPv4(r, func(body []byte) error {
		if err := decodeRIBIPv4Into(body, &rr, &dec); err != nil {
			return err
		}
		return fn(&rr)
	})
}

// DecodeRIBIPv4 decodes a RIB_IPV4_UNICAST body into a fresh record
// the caller may retain.
func DecodeRIBIPv4(body []byte) (*RIBRecord, error) {
	rec := &RIBRecord{}
	var dec bgp.UpdateDecoder
	if err := decodeRIBIPv4Into(body, rec, &dec); err != nil {
		return nil, err
	}
	return rec, nil
}

// decodeRIBIPv4Into decodes a RIB_IPV4_UNICAST body into rec, reusing
// rec's entry slots (and each slot's attribute buffers) and dec as
// scratch. Everything decoded is only valid until the next call with
// the same rec.
func decodeRIBIPv4Into(body []byte, rec *RIBRecord, dec *bgp.UpdateDecoder) error {
	if len(body) < 5 {
		return ErrTruncated
	}
	rec.Sequence = binary.BigEndian.Uint32(body[0:4])
	b := body[4:]
	p, n, err := parseWirePrefix(b)
	if err != nil {
		return err
	}
	rec.Prefix = p
	b = b[n:]
	if len(b) < 2 {
		return ErrTruncated
	}
	count := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	if count <= cap(rec.Entries) {
		// Resurrected slots keep their attribute buffers (truncation
		// never zeroed them), so re-decoding into them is append-only.
		rec.Entries = rec.Entries[:count]
	} else {
		grown := make([]RIBEntry, count)
		copy(grown, rec.Entries[:cap(rec.Entries)])
		rec.Entries = grown
	}
	for i := 0; i < count; i++ {
		if len(b) < 8 {
			rec.Entries = rec.Entries[:i]
			return ErrTruncated
		}
		e := &rec.Entries[i]
		e.PeerIndex = binary.BigEndian.Uint16(b[0:2])
		e.Originated = time.Unix(int64(binary.BigEndian.Uint32(b[2:6])), 0).UTC()
		alen := int(binary.BigEndian.Uint16(b[6:8]))
		if len(b) < 8+alen {
			rec.Entries = rec.Entries[:i]
			return ErrTruncated
		}
		if err := bgp.DecodeAttrsReuse(b[8:8+alen], &e.Attrs, dec); err != nil {
			rec.Entries = rec.Entries[:i]
			return err
		}
		b = b[8+alen:]
	}
	return nil
}

// appendWirePrefix and parseWirePrefix use the RFC 4271 prefix encoding,
// which TABLE_DUMP_V2 shares with UPDATE NLRI.
func appendWirePrefix(dst []byte, p netaddr.Prefix) []byte {
	l := p.Len()
	dst = append(dst, byte(l))
	a := p.Addr()
	for nbytes := (l + 7) / 8; nbytes > 0; nbytes-- {
		dst = append(dst, byte(a>>24))
		a <<= 8
	}
	return dst
}

func parseWirePrefix(b []byte) (netaddr.Prefix, int, error) {
	if len(b) < 1 {
		return netaddr.Invalid, 0, ErrTruncated
	}
	l := int(b[0])
	if l > 32 {
		return netaddr.Invalid, 0, fmt.Errorf("mrt: prefix length %d", l)
	}
	nbytes := (l + 7) / 8
	if len(b) < 1+nbytes {
		return netaddr.Invalid, 0, ErrTruncated
	}
	var a uint32
	for i := 0; i < nbytes; i++ {
		a |= uint32(b[1+i]) << (24 - 8*uint(i))
	}
	return netaddr.MakePrefix(a, l), 1 + nbytes, nil
}
