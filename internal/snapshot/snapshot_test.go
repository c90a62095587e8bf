package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// TestWireRejectsCorruption: every single-byte flip and every
// truncation is caught — by a structural check or, failing that, the
// trailing CRC — and reported as ErrCorrupt, except a changed version
// field, which is ErrVersion.
func TestWireRejectsCorruption(t *testing.T) {
	img := testImage(t)
	var buf bytes.Buffer
	if err := Write(&buf, img); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	for _, off := range []int{0, 5, len(magic), len(magic) + 2, len(good) / 3, len(good) / 2, len(good) - 2} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x20
		want := ErrCorrupt
		if off >= len(magic) && off < len(magic)+4 {
			want = ErrVersion
		}
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, want) {
			t.Errorf("flip at offset %d: error %v, want %v", off, err, want)
		}
	}
	for _, cut := range []int{1, 4, len(good) / 2, len(good) - 1} {
		if _, err := Read(bytes.NewReader(good[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d bytes: error %v, want %v", cut, err, ErrCorrupt)
		}
	}
	future := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(future[len(magic):], Version+1)
	if _, err := Read(bytes.NewReader(future)); !errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt) {
		t.Errorf("version %d: error %v, want %v alone", Version+1, err, ErrVersion)
	}
}

// rawStream assembles magic+version plus raw (kind, payload) pairs with
// a valid trailing checksum, for structural-error tests.
func rawStream(sections ...[2]any) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte(magic), Version)
	for _, s := range sections {
		kind, payload := s[0].(uint32), s[1].([]byte)
		b = le.AppendUint32(b, kind)
		b = le.AppendUint64(b, uint64(len(payload)))
		b = append(b, payload...)
	}
	b = le.AppendUint32(b, secEnd)
	b = le.AppendUint64(b, 4)
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func TestWireStructuralErrors(t *testing.T) {
	emptyPool := func() []byte {
		// One link, the reserved zero entry, and no paths.
		_, b := encode(walkPool, &rib.PoolImage{Links: []topology.Link{{}}})
		return b
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
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %v with substring %q", tc.name, err, ErrCorrupt, tc.want)
		}
	}
}

// encode runs walk's size pass, then its encode pass, and returns the
// size and the bytes the encode wrote.
func encode[T any](walk func(*codec, *T), v *T) (int, []byte) {
	size := codec{mode: modeSize}
	walk(&size, v)
	enc := codec{mode: modeEncode, b: make([]byte, size.n)}
	walk(&enc, v)
	return size.n, enc.b[:enc.n]
}

// TestSectionSizesExact pins the walks' size pass to the bytes their
// encode pass writes — on a real provisioned peer, on the synthetic
// peer that fills every optional field, on one with no plan or scheme
// and on the empty image — so the writer's buffer is sized once per
// section and the encoder fills it exactly.
func TestSectionSizesExact(t *testing.T) {
	for k, img := range []*FleetImage{testImage(t), syntheticImage(), {Peers: []PeerImage{{}}}} {
		if size, b := encode(walkPool, &img.Pool); size != len(b) {
			t.Errorf("image %d: pool sized at %d, encoded to %d", k, size, len(b))
		}
		for i := range img.Peers {
			if size, b := encode(walkPeer, &img.Peers[i]); size != len(b) {
				t.Errorf("image %d peer %d: sized at %d, encoded to %d", k, i, size, len(b))
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
