package snapshot

import (
	"bytes"
	"hash/crc32"
	"strings"
	"testing"

	"swift/internal/event"
	"swift/internal/netaddr"
	"swift/internal/rib"
	"swift/internal/swift"
	"swift/internal/topology"
)

// testImage builds a small but fully populated fleet image from a real
// engine: provisioned scheme and FIB, alternates, and a shared pool.
func testImage(t testing.TB) *FleetImage {
	pool := rib.NewPool()
	cfg := swift.Config{LocalAS: 1, PrimaryNeighbor: 2, Pool: pool}
	cfg.Encoding.MinPrefixes = 4
	eng := swift.New(cfg)
	for i := 0; i < 32; i++ {
		p := netaddr.PrefixFor(8, i)
		eng.LearnPrimary(p, []uint32{2, 5 + uint32(i%3), 6})
		eng.LearnAlternate(3, p, []uint32{3, 6})
	}
	if err := eng.Provision(); err != nil {
		t.Fatal(err)
	}
	return &FleetImage{
		Pool: pool.Export(),
		Peers: []PeerImage{
			{Key: event.PeerKey{AS: 2, BGPID: 9}, State: eng.ExportState()},
		},
	}
}

func TestWireRoundTrip(t *testing.T) {
	img := testImage(t)
	var buf bytes.Buffer
	if err := Write(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Peers) != 1 || got.Peers[0].Key != img.Peers[0].Key {
		t.Fatalf("peers round-tripped wrong: %+v", got.Peers)
	}
	if len(got.Pool.Paths) != len(img.Pool.Paths) || len(got.Pool.Links) != len(img.Pool.Links) {
		t.Fatalf("pool %d paths/%d links, want %d/%d",
			len(got.Pool.Paths), len(got.Pool.Links), len(img.Pool.Paths), len(img.Pool.Links))
	}
	if len(got.Peers[0].State.Table.Routes) != 32 {
		t.Fatalf("table routes %d, want 32", len(got.Peers[0].State.Table.Routes))
	}
	if got.Peers[0].State.Scheme == nil || got.Peers[0].State.Plan == nil {
		t.Fatal("provisioned scheme/plan lost in round trip")
	}
	var buf2 bytes.Buffer
	if err := Write(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-serialization differs: %d vs %d bytes", buf.Len(), buf2.Len())
	}
}

func TestWireRejectsCorruption(t *testing.T) {
	img := testImage(t)
	var buf bytes.Buffer
	if err := Write(&buf, img); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Every single-byte flip must be caught — by a structural check or,
	// failing that, the trailing CRC.
	for _, off := range []int{0, 5, len(magic), len(magic) + 2, len(good) / 3, len(good) / 2, len(good) - 2} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x20
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Errorf("flip at offset %d accepted", off)
		}
	}
	for _, cut := range []int{1, 4, len(good) / 2, len(good) - 1} {
		if _, err := Read(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

// section assembles magic+version plus raw (kind, payload) pairs with a
// valid trailing checksum, for structural-error tests.
func rawStream(sections ...[2]any) []byte {
	var e enc
	b := []byte(magic)
	e.u32(Version)
	b = append(b, e.b...)
	for _, s := range sections {
		kind, payload := s[0].(uint32), s[1].([]byte)
		var h enc
		h.u32(kind)
		h.u64(uint64(len(payload)))
		b = append(b, h.b...)
		b = append(b, payload...)
	}
	var h enc
	h.u32(secEnd)
	h.u64(4)
	b = append(b, h.b...)
	var tail enc
	tail.u32(crc32.ChecksumIEEE(b))
	return append(b, tail.b...)
}

func TestWireStructuralErrors(t *testing.T) {
	emptyPool := func() []byte {
		var e enc
		e.u64(1) // one link: the reserved zero entry
		e.link(topology.Link{})
		e.u64(0) // no paths
		return e.b
	}
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"bad magic", append([]byte("NOTASNAP"), rawStream()[8:]...), "magic"},
		{"peer before pool", rawStream([2]any{secPeer, []byte{}}), "before pool"},
		{"duplicate pool", rawStream([2]any{secPool, emptyPool()}, [2]any{secPool, emptyPool()}), "duplicate"},
		{"unknown section", rawStream([2]any{uint32(77), []byte{}}), "unknown section"},
		{"no pool", rawStream(), "no pool"},
		{"trailing bytes", rawStream([2]any{secPool, append(emptyPool(), 0)}), "trailing"},
	}
	for _, tc := range cases {
		_, err := Read(bytes.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestSectionSizesExact pins poolSize and peerSize to what encodePool
// and encodePeer write — on a real provisioned peer, on the synthetic
// peer that fills every optional field, on one with no plan or scheme
// and on the empty image — so the writer's buffer is sized once per
// section and never grows while encoding.
func TestSectionSizesExact(t *testing.T) {
	for k, img := range []*FleetImage{testImage(t), syntheticImage(), {Peers: []PeerImage{{}}}} {
		var e enc
		encodePool(&e, &img.Pool)
		if got, want := poolSize(&img.Pool), len(e.b); got != want {
			t.Errorf("image %d: poolSize %d, encodePool wrote %d", k, got, want)
		}
		for i := range img.Peers {
			var e enc
			encodePeer(&e, &img.Peers[i])
			if got, want := peerSize(&img.Peers[i]), len(e.b); got != want {
				t.Errorf("image %d peer %d: peerSize %d, encodePeer wrote %d", k, i, got, want)
			}
		}
	}
}

// TestWriterRejectsPeersOutOfOrder pins the writer to the order Read
// requires: a peer whose key does not follow the last one's fails the
// write, and the error sticks for every later call.
func TestWriterRejectsPeersOutOfOrder(t *testing.T) {
	img := syntheticImage()
	img.Peers[0], img.Peers[1] = img.Peers[1], img.Peers[0]
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, &img.Pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Peer(&img.Peers[0]); err != nil {
		t.Fatal(err)
	}
	err = sw.Peer(&img.Peers[1])
	if err == nil || !strings.Contains(err.Error(), "not ascending") {
		t.Fatalf("out-of-order peer: error %v, want \"not ascending\"", err)
	}
	if err2 := sw.Close(); err2 != err {
		t.Fatalf("Close after the failed peer returned %v, want %v", err2, err)
	}
	if err := Write(&buf, img); err == nil {
		t.Fatal("Write accepted peers out of order")
	}
}
