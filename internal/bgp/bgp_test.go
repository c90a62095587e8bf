package bgp

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"swift/internal/netaddr"
)

func TestKeepaliveRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Keepalive{}); err != nil {
		t.Fatal(err)
	}
	h, body, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TypeKeepalive || len(body) != 0 || h.Len != HeaderLen {
		t.Errorf("keepalive header = %+v body %d bytes", h, len(body))
	}
}

func TestHeaderErrors(t *testing.T) {
	good := make([]byte, HeaderLen)
	marshalHeader(good, HeaderLen, TypeKeepalive)

	short := good[:HeaderLen-1]
	if _, err := ParseHeader(short); !errors.Is(err, ErrShortMessage) {
		t.Errorf("short header error = %v", err)
	}

	badMarker := append([]byte(nil), good...)
	badMarker[3] = 0
	if _, err := ParseHeader(badMarker); !errors.Is(err, ErrBadMarker) {
		t.Errorf("bad marker error = %v", err)
	}

	badLen := append([]byte(nil), good...)
	badLen[16], badLen[17] = 0, 5
	if _, err := ParseHeader(badLen); !errors.Is(err, ErrBadLength) {
		t.Errorf("bad length error = %v", err)
	}

	badType := append([]byte(nil), good...)
	badType[18] = 9
	if _, err := ParseHeader(badType); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type error = %v", err)
	}
}

func TestOpenRoundTrip(t *testing.T) {
	in := &Open{
		AS:       64512,
		HoldTime: 90,
		RouterID: 0x0a000001,
	}
	wire, err := in.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	h, body, err := ReadMessage(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TypeOpen {
		t.Fatalf("type = %d", h.Type)
	}
	var out Open
	if err := out.Decode(body); err != nil {
		t.Fatal(err)
	}
	if out.AS != 64512 || out.HoldTime != 90 || out.RouterID != 0x0a000001 || out.Version != Version {
		t.Errorf("open = %+v", out)
	}
	if as4, ok := out.FourOctetAS(); !ok || as4 != 64512 {
		t.Errorf("four-octet AS = %d, %v", as4, ok)
	}
}

func TestOpenFourOctetASTrans(t *testing.T) {
	in := &Open{AS: 400000, HoldTime: 180, RouterID: 1}
	wire, err := in.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The wire 2-byte field must carry ASTrans.
	if got := uint16(wire[HeaderLen+1])<<8 | uint16(wire[HeaderLen+2]); got != ASTrans {
		t.Errorf("wire AS field = %d, want %d", got, ASTrans)
	}
	var out Open
	if err := out.Decode(wire[HeaderLen:]); err != nil {
		t.Fatal(err)
	}
	if out.AS != 400000 {
		t.Errorf("decoded AS = %d, want 400000", out.AS)
	}
}

func TestOpenHoldTimeValidation(t *testing.T) {
	in := &Open{AS: 1, HoldTime: 2, RouterID: 1}
	if _, err := in.AppendWire(nil); err == nil {
		t.Error("hold time 2 must be rejected")
	}
	in.HoldTime = 0 // zero disables keepalives and is legal
	if _, err := in.AppendWire(nil); err != nil {
		t.Errorf("hold time 0 rejected: %v", err)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	in := &Notification{Code: NotifCease, Subcode: 2, Data: []byte{1, 2, 3}}
	wire, err := in.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, body, err := ReadMessage(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	var out Notification
	if err := out.Decode(body); err != nil {
		t.Fatal(err)
	}
	if out.Code != NotifCease || out.Subcode != 2 || !bytes.Equal(out.Data, []byte{1, 2, 3}) {
		t.Errorf("notification = %+v", out)
	}
	if out.Error() == "" {
		t.Error("Error() must render")
	}
}

func mustPrefix(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

func TestUpdateRoundTrip(t *testing.T) {
	in := &Update{
		Withdrawn: []netaddr.Prefix{mustPrefix("10.1.0.0/16"), mustPrefix("10.2.3.0/24")},
		Attrs: Attrs{
			Origin:       OriginIGP,
			ASPath:       []uint32{65001, 65002, 400000},
			HasNextHop:   true,
			NextHop:      0xc0000201,
			HasMED:       true,
			MED:          50,
			HasLocalPref: true,
			LocalPref:    100,
			Communities:  []uint32{65001<<16 | 666},
		},
		NLRI: []netaddr.Prefix{mustPrefix("192.0.2.0/24"), mustPrefix("198.51.0.0/16")},
	}
	wire, err := in.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	h, body, err := ReadMessage(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TypeUpdate {
		t.Fatalf("type = %d", h.Type)
	}
	var out Update
	if err := out.Decode(body); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Withdrawn, in.Withdrawn) {
		t.Errorf("withdrawn = %v", out.Withdrawn)
	}
	if !reflect.DeepEqual(out.NLRI, in.NLRI) {
		t.Errorf("nlri = %v", out.NLRI)
	}
	if !reflect.DeepEqual(out.Attrs.ASPath, in.Attrs.ASPath) {
		t.Errorf("as path = %v", out.Attrs.ASPath)
	}
	if out.Attrs.NextHop != in.Attrs.NextHop || out.Attrs.MED != in.Attrs.MED ||
		out.Attrs.LocalPref != in.Attrs.LocalPref {
		t.Errorf("attrs = %+v", out.Attrs)
	}
	if !reflect.DeepEqual(out.Attrs.Communities, in.Attrs.Communities) {
		t.Errorf("communities = %v", out.Attrs.Communities)
	}
}

func TestUpdateWithdrawalOnly(t *testing.T) {
	in := &Update{Withdrawn: []netaddr.Prefix{mustPrefix("10.0.0.0/8")}}
	wire, err := in.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out Update
	if err := out.Decode(wire[HeaderLen:]); err != nil {
		t.Fatal(err)
	}
	if len(out.NLRI) != 0 || len(out.Withdrawn) == 0 {
		t.Error("decoded withdrawal is not withdrawal-only")
	}
	if len(out.NLRI) != 0 {
		t.Errorf("nlri = %v", out.NLRI)
	}
}

func TestUpdateDecoderReuse(t *testing.T) {
	var d UpdateDecoder
	u1 := &Update{Withdrawn: []netaddr.Prefix{mustPrefix("10.0.0.0/8"), mustPrefix("10.1.0.0/16")}}
	w1, _ := u1.AppendWire(nil)
	if err := d.Decode(w1[HeaderLen:]); err != nil {
		t.Fatal(err)
	}
	if len(d.Withdrawn) != 2 {
		t.Fatalf("withdrawn = %v", d.Withdrawn)
	}
	u2 := &Update{
		Attrs: Attrs{ASPath: []uint32{1, 2}, HasNextHop: true, NextHop: 9},
		NLRI:  []netaddr.Prefix{mustPrefix("192.0.2.0/24")},
	}
	w2, _ := u2.AppendWire(nil)
	if err := d.Decode(w2[HeaderLen:]); err != nil {
		t.Fatal(err)
	}
	if len(d.Withdrawn) != 0 || len(d.NLRI) != 1 || len(d.Attrs.ASPath) != 2 {
		t.Errorf("reused decoder state = %+v", d)
	}
}

func TestUpdateNLRIWithoutAttrsRejected(t *testing.T) {
	// Hand-build an UPDATE with NLRI but zero attributes.
	body := []byte{0, 0, 0, 0, 24, 192, 0, 2}
	var d UpdateDecoder
	if err := d.Decode(body); err == nil {
		t.Error("NLRI without mandatory attributes must be rejected")
	}
}

func TestUpdateTruncations(t *testing.T) {
	in := &Update{
		Attrs: Attrs{ASPath: []uint32{1}, HasNextHop: true, NextHop: 1},
		NLRI:  []netaddr.Prefix{mustPrefix("10.0.0.0/8")},
	}
	wire, _ := in.AppendWire(nil)
	body := wire[HeaderLen:]
	for cut := 1; cut < len(body); cut++ {
		var d UpdateDecoder
		// Any truncation must error, never panic.
		_ = d.Decode(body[:cut])
	}
}

func TestASPathSetTerminatesPath(t *testing.T) {
	// AS_SEQUENCE {1,2} then AS_SET {3,4}: flattened path stops at the set.
	val := []byte{
		ASSequence, 2, 0, 0, 0, 1, 0, 0, 0, 2,
		ASSet, 2, 0, 0, 0, 3, 0, 0, 0, 4,
	}
	var d UpdateDecoder
	if err := d.decodeASPath(val); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Attrs.ASPath, []uint32{1, 2}) {
		t.Errorf("path = %v", d.Attrs.ASPath)
	}
}

func TestPrefixWireRoundTripProperty(t *testing.T) {
	f := func(addr uint32, l uint8) bool {
		p := netaddr.MakePrefix(addr, int(l%33))
		wire := appendPrefix(nil, p)
		q, n, err := parsePrefix(wire)
		return err == nil && n == len(wire) && q == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackWithdrawals(t *testing.T) {
	var ps []netaddr.Prefix
	for i := 0; i < 1500; i++ {
		ps = append(ps, netaddr.BlockFor(100, i%250))
	}
	msgs := PackWithdrawals(ps)
	if len(msgs) != 3 {
		t.Fatalf("messages = %d, want 3", len(msgs))
	}
	total := 0
	for _, m := range msgs {
		total += len(m.Withdrawn)
		if len(m.NLRI) != 0 || len(m.Withdrawn) == 0 {
			t.Error("packed withdrawal has NLRI")
		}
		wire, err := m.AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(wire) > MaxMsgLen {
			t.Errorf("message %d bytes exceeds limit", len(wire))
		}
	}
	if total != 1500 {
		t.Errorf("total packed = %d", total)
	}
}

func TestDecodeMessageDispatch(t *testing.T) {
	for _, m := range []Message{
		Keepalive{},
		&Open{AS: 1, HoldTime: 90, RouterID: 1},
		&Notification{Code: NotifCease},
		&Update{Withdrawn: []netaddr.Prefix{mustPrefix("10.0.0.0/8")}},
	} {
		wire, err := m.AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		h, body, err := ReadMessage(bytes.NewReader(wire))
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeMessage(h, body)
		if err != nil {
			t.Fatalf("DecodeMessage(%d): %v", h.Type, err)
		}
		if out.MsgType() != m.MsgType() {
			t.Errorf("type = %d, want %d", out.MsgType(), m.MsgType())
		}
	}
}

func BenchmarkUpdateDecode(b *testing.B) {
	var ps []netaddr.Prefix
	for i := 0; i < 300; i++ {
		ps = append(ps, netaddr.BlockFor(42, i%250))
	}
	u := &Update{Withdrawn: ps}
	wire, _ := u.AppendWire(nil)
	body := wire[HeaderLen:]
	var d UpdateDecoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Decode(body); err != nil {
			b.Fatal(err)
		}
	}
}
