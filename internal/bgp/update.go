package bgp

import (
	"encoding/binary"
	"fmt"

	"swift/internal/netaddr"
)

// Path attribute type codes (RFC 4271 §5, RFC 1997).
const (
	AttrOrigin          = 1
	AttrASPath          = 2
	AttrNextHop         = 3
	AttrMED             = 4
	AttrLocalPref       = 5
	AttrAtomicAggregate = 6
	AttrAggregator      = 7
	AttrCommunities     = 8
)

// ORIGIN values.
const (
	OriginIGP        = 0
	OriginEGP        = 1
	OriginIncomplete = 2
)

// AS_PATH segment types.
const (
	ASSet      = 1
	ASSequence = 2
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagExtLen     = 0x10
)

// Attrs carries the decoded path attributes of an UPDATE. Only the
// attributes the SWIFT pipeline consumes are modeled as fields; unknown
// transitive attributes are preserved opaquely so a speaker can re-export
// routes without losing them.
type Attrs struct {
	Origin       uint8
	ASPath       []uint32 // flattened AS_SEQUENCE, first hop first
	HasNextHop   bool
	NextHop      uint32
	HasMED       bool
	MED          uint32
	HasLocalPref bool
	LocalPref    uint32
	Communities  []uint32
	Unknown      []RawAttr
}

// RawAttr is an attribute this package does not interpret.
type RawAttr struct {
	Flags uint8
	Type  uint8
	Value []byte
}

// Update is the BGP UPDATE message (RFC 4271 §4.3). Withdrawn and NLRI
// prefixes use the compact netaddr.Prefix representation.
type Update struct {
	Withdrawn []netaddr.Prefix
	Attrs     Attrs
	NLRI      []netaddr.Prefix
}

// MsgType implements Message.
func (*Update) MsgType() uint8 { return TypeUpdate }

func appendPrefix(dst []byte, p netaddr.Prefix) []byte {
	l := p.Len()
	dst = append(dst, byte(l))
	a := p.Addr()
	for nbytes := (l + 7) / 8; nbytes > 0; nbytes-- {
		dst = append(dst, byte(a>>24))
		a <<= 8
	}
	return dst
}

func parsePrefix(b []byte) (netaddr.Prefix, int, error) {
	if len(b) < 1 {
		return netaddr.Invalid, 0, ErrShortMessage
	}
	l := int(b[0])
	if l > 32 {
		return netaddr.Invalid, 0, fmt.Errorf("bgp: prefix length %d", l)
	}
	nbytes := (l + 7) / 8
	if len(b) < 1+nbytes {
		return netaddr.Invalid, 0, ErrShortMessage
	}
	var a uint32
	for i := 0; i < nbytes; i++ {
		a |= uint32(b[1+i]) << (24 - 8*uint(i))
	}
	return netaddr.MakePrefix(a, l), 1 + nbytes, nil
}

// appendAttrs encodes the path attributes. AS numbers are always encoded
// as 4 octets: every session in this repository negotiates RFC 6793.
func appendAttrs(dst []byte, a *Attrs) ([]byte, error) {
	put := func(flags, typ uint8, val []byte) error {
		if len(val) > 0xffff {
			return fmt.Errorf("%w: attribute %d too long", ErrBadAttr, typ)
		}
		// A preserved unknown attribute may carry the extended-length
		// flag even for a short value; the length field's width must
		// match the flag bit or decoders misparse the block.
		if len(val) > 255 || flags&flagExtLen != 0 {
			flags |= flagExtLen
			dst = append(dst, flags, typ, byte(len(val)>>8), byte(len(val)))
		} else {
			dst = append(dst, flags, typ, byte(len(val)))
		}
		dst = append(dst, val...)
		return nil
	}

	if err := put(flagTransitive, AttrOrigin, []byte{a.Origin}); err != nil {
		return nil, err
	}

	var pathVal []byte
	if len(a.ASPath) > 0 {
		if len(a.ASPath) > 255 {
			return nil, fmt.Errorf("%w: AS path longer than 255", ErrBadAttr)
		}
		pathVal = make([]byte, 2+4*len(a.ASPath))
		pathVal[0] = ASSequence
		pathVal[1] = byte(len(a.ASPath))
		for i, as := range a.ASPath {
			binary.BigEndian.PutUint32(pathVal[2+4*i:], as)
		}
	}
	if err := put(flagTransitive, AttrASPath, pathVal); err != nil {
		return nil, err
	}

	if a.HasNextHop {
		var v [4]byte
		binary.BigEndian.PutUint32(v[:], a.NextHop)
		if err := put(flagTransitive, AttrNextHop, v[:]); err != nil {
			return nil, err
		}
	}
	if a.HasMED {
		var v [4]byte
		binary.BigEndian.PutUint32(v[:], a.MED)
		if err := put(flagOptional, AttrMED, v[:]); err != nil {
			return nil, err
		}
	}
	if a.HasLocalPref {
		var v [4]byte
		binary.BigEndian.PutUint32(v[:], a.LocalPref)
		if err := put(flagTransitive, AttrLocalPref, v[:]); err != nil {
			return nil, err
		}
	}
	if len(a.Communities) > 0 {
		v := make([]byte, 4*len(a.Communities))
		for i, c := range a.Communities {
			binary.BigEndian.PutUint32(v[4*i:], c)
		}
		if err := put(flagOptional|flagTransitive, AttrCommunities, v); err != nil {
			return nil, err
		}
	}
	for _, raw := range a.Unknown {
		if err := put(raw.Flags, raw.Type, raw.Value); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// AppendWire implements Message.
func (u *Update) AppendWire(dst []byte) ([]byte, error) {
	var wd []byte
	for _, p := range u.Withdrawn {
		wd = appendPrefix(wd, p)
	}
	var attrs []byte
	if len(u.NLRI) > 0 {
		var err error
		attrs, err = appendAttrs(nil, &u.Attrs)
		if err != nil {
			return nil, err
		}
	}
	var nlri []byte
	for _, p := range u.NLRI {
		nlri = appendPrefix(nlri, p)
	}

	total := HeaderLen + 2 + len(wd) + 2 + len(attrs) + len(nlri)
	if total > MaxMsgLen {
		return nil, fmt.Errorf("%w: update of %d bytes", ErrBadLength, total)
	}
	off := len(dst)
	dst = append(dst, make([]byte, total)...)
	b := dst[off:]
	marshalHeader(b, total, TypeUpdate)
	b = b[HeaderLen:]
	binary.BigEndian.PutUint16(b[0:2], uint16(len(wd)))
	copy(b[2:], wd)
	p := 2 + len(wd)
	binary.BigEndian.PutUint16(b[p:p+2], uint16(len(attrs)))
	copy(b[p+2:], attrs)
	copy(b[p+2+len(attrs):], nlri)
	return dst, nil
}

// Decode parses an UPDATE body, allocating fresh slices.
func (u *Update) Decode(body []byte) error {
	var d UpdateDecoder
	if err := d.Decode(body); err != nil {
		return err
	}
	u.Withdrawn = append([]netaddr.Prefix(nil), d.Withdrawn...)
	u.NLRI = append([]netaddr.Prefix(nil), d.NLRI...)
	u.Attrs = d.Attrs
	u.Attrs.ASPath = append([]uint32(nil), d.Attrs.ASPath...)
	u.Attrs.Communities = append([]uint32(nil), d.Attrs.Communities...)
	return nil
}

// UpdateDecoder decodes UPDATE bodies into reusable storage. Successive
// calls to Decode overwrite the previous contents (gopacket's
// DecodingLayerParser pattern): the caller must copy anything it wants to
// keep across calls. The zero value is ready to use.
type UpdateDecoder struct {
	Withdrawn []netaddr.Prefix
	Attrs     Attrs
	NLRI      []netaddr.Prefix
}

// Decode parses body. Slices inside the decoder alias its internal
// buffers, not body, except Unknown attribute values which alias body.
func (d *UpdateDecoder) Decode(body []byte) error {
	d.Withdrawn = d.Withdrawn[:0]
	d.NLRI = d.NLRI[:0]
	d.Attrs = Attrs{
		ASPath:      d.Attrs.ASPath[:0],
		Communities: d.Attrs.Communities[:0],
	}

	if len(body) < 4 {
		return ErrShortMessage
	}
	wdLen := int(binary.BigEndian.Uint16(body[0:2]))
	if len(body) < 2+wdLen+2 {
		return ErrShortMessage
	}
	wd := body[2 : 2+wdLen]
	for len(wd) > 0 {
		p, n, err := parsePrefix(wd)
		if err != nil {
			return err
		}
		d.Withdrawn = append(d.Withdrawn, p)
		wd = wd[n:]
	}

	attrStart := 2 + wdLen + 2
	attrLen := int(binary.BigEndian.Uint16(body[2+wdLen : attrStart]))
	if len(body) < attrStart+attrLen {
		return ErrShortMessage
	}
	if err := d.decodeAttrs(body[attrStart : attrStart+attrLen]); err != nil {
		return err
	}

	nlri := body[attrStart+attrLen:]
	for len(nlri) > 0 {
		p, n, err := parsePrefix(nlri)
		if err != nil {
			return err
		}
		d.NLRI = append(d.NLRI, p)
		nlri = nlri[n:]
	}
	if len(d.NLRI) > 0 && len(d.Attrs.ASPath) == 0 && !d.Attrs.HasNextHop {
		return fmt.Errorf("%w: NLRI without mandatory attributes", ErrBadAttr)
	}
	return nil
}

func (d *UpdateDecoder) decodeAttrs(b []byte) error {
	for len(b) > 0 {
		if len(b) < 3 {
			return ErrShortMessage
		}
		flags, typ := b[0], b[1]
		var vlen, hdr int
		if flags&flagExtLen != 0 {
			if len(b) < 4 {
				return ErrShortMessage
			}
			vlen, hdr = int(binary.BigEndian.Uint16(b[2:4])), 4
		} else {
			vlen, hdr = int(b[2]), 3
		}
		if len(b) < hdr+vlen {
			return ErrShortMessage
		}
		val := b[hdr : hdr+vlen]
		switch typ {
		case AttrOrigin:
			if vlen != 1 {
				return fmt.Errorf("%w: ORIGIN length %d", ErrBadAttr, vlen)
			}
			d.Attrs.Origin = val[0]
		case AttrASPath:
			if err := d.decodeASPath(val); err != nil {
				return err
			}
		case AttrNextHop:
			if vlen != 4 {
				return fmt.Errorf("%w: NEXT_HOP length %d", ErrBadAttr, vlen)
			}
			d.Attrs.HasNextHop = true
			d.Attrs.NextHop = binary.BigEndian.Uint32(val)
		case AttrMED:
			if vlen != 4 {
				return fmt.Errorf("%w: MED length %d", ErrBadAttr, vlen)
			}
			d.Attrs.HasMED = true
			d.Attrs.MED = binary.BigEndian.Uint32(val)
		case AttrLocalPref:
			if vlen != 4 {
				return fmt.Errorf("%w: LOCAL_PREF length %d", ErrBadAttr, vlen)
			}
			d.Attrs.HasLocalPref = true
			d.Attrs.LocalPref = binary.BigEndian.Uint32(val)
		case AttrCommunities:
			if vlen%4 != 0 {
				return fmt.Errorf("%w: COMMUNITIES length %d", ErrBadAttr, vlen)
			}
			for i := 0; i < vlen; i += 4 {
				d.Attrs.Communities = append(d.Attrs.Communities, binary.BigEndian.Uint32(val[i:]))
			}
		case AttrAtomicAggregate, AttrAggregator:
			// Accepted and ignored: they do not influence SWIFT.
		default:
			d.Attrs.Unknown = append(d.Attrs.Unknown, RawAttr{Flags: flags, Type: typ, Value: val})
		}
		b = b[hdr+vlen:]
	}
	return nil
}

// decodeASPath flattens AS_SEQUENCE segments into Attrs.ASPath. AS_SET
// members are appended too (order inside a set is not meaningful, but
// SWIFT link extraction only needs adjacency through the sequence, and
// sets terminate the usable part of a path — we mark that by stopping).
// AS numbers are 4 octets, per the sessions this repository establishes.
func (d *UpdateDecoder) decodeASPath(b []byte) error {
	for len(b) > 0 {
		if len(b) < 2 {
			return ErrShortMessage
		}
		segType, n := b[0], int(b[1])
		if segType != ASSet && segType != ASSequence {
			return fmt.Errorf("%w: AS path segment type %d", ErrBadAttr, segType)
		}
		if len(b) < 2+4*n {
			return ErrShortMessage
		}
		if segType == ASSet {
			// An AS_SET aggregates an unordered tail; links beyond it are
			// unknown, so the path stops here for SWIFT purposes.
			return nil
		}
		for i := 0; i < n; i++ {
			d.Attrs.ASPath = append(d.Attrs.ASPath, binary.BigEndian.Uint32(b[2+4*i:]))
		}
		b = b[2+4*n:]
	}
	return nil
}
