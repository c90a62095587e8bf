// Package snapshot is SWIFT's warm-restart wire format: a versioned,
// length-prefixed binary serialization of a whole fleet — the shared
// path/link intern pool plus every peer engine's state — that restores
// without re-ingesting MRT or BMP dumps. The paper's monitor is
// long-lived (§7 runs it continuously against live BGP feeds); a
// restart that had to replay a multi-gigabyte RIB dump to get back to
// provisioned FIBs would hold reroute protection down for minutes.
//
// Layout (all integers little-endian, fixed width):
//
//	magic "SWFTSNAP" | u32 version
//	section*           u32 kind | u64 payload length | payload
//	end section        u32 0xffffffff | u64 4 | u32 CRC-32 (IEEE)
//
// The CRC covers every byte before it, headers included. Section
// payloads are themselves fixed-width fields and u64-counted arrays —
// no varints, no padding — so a given FleetImage always serializes to
// the same bytes, and the images export in canonical order, so a
// restored fleet re-snapshots byte-identically.
//
// Each section's payload is described once, field by field in wire
// order, by a walk (walkPool, walkPeer) over a codec that either sizes,
// encodes or decodes it; there is no second copy of the format to keep
// in step.
//
// Writer streams the format a section at a time — the pool, then one
// peer per call — so a fleet is checkpointed without ever holding a
// whole FleetImage; Write is the same writer run over one. Read
// decodes a whole image and reuses one payload buffer across sections.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"slices"

	"swift/internal/encoding"
	"swift/internal/event"
	"swift/internal/rib"
	"swift/internal/swift"
	"swift/internal/topology"
)

// Version is the current wire-format version. Readers reject anything
// else: the format carries dense pool ids and compiled tag layouts, so
// cross-version migration means re-provisioning, not bit reshuffling.
const Version = 1

const magic = "SWFTSNAP"

const (
	secPool uint32 = 1
	secPeer uint32 = 2
	secEnd  uint32 = 0xffffffff
)

var (
	// ErrCorrupt marks a stream that is not a well-formed checkpoint:
	// bad magic or framing, a checksum mismatch, truncation, a count
	// past the bytes left, trailing bytes, or — wrapped by the fleet
	// restorer — state that a layer's own restore validation rejects.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrVersion marks a checkpoint in a format version this build does
	// not read.
	ErrVersion = errors.New("snapshot: unsupported version")
)

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// PeerImage is one peer engine keyed by its BGP session identity.
type PeerImage struct {
	Key   event.PeerKey
	State swift.EngineState
}

// FleetImage is a whole fleet: the shared intern pool and the peers in
// ascending (AS, BGPID) order.
type FleetImage struct {
	Pool  rib.PoolImage
	Peers []PeerImage
}

// Writer streams a fleet image to an io.Writer one section at a time,
// so a caller that exports its state piece by piece never holds more
// than one peer's image: NewWriter writes the header and the pool
// section, each Peer call one peer section, and Close the end section
// with the checksum. Every section is encoded into the same buffer,
// sized up front by the walk's size pass and rewound once the section
// is written, so the encoder's memory is the largest section, not the
// file.
//
// The first error — from w, or a peer out of order — is latched: every
// later call returns it.
type Writer struct {
	w     io.Writer
	crc   hash.Hash32
	c     codec // encoding into c.b, which holds what is not yet written out
	size  codec // sizing the next section
	last  event.PeerKey
	peers int
	err   error
}

var errWriterClosed = errors.New("snapshot: writer closed")

// NewWriter writes the header and pool to w and returns the writer the
// peer sections follow through.
func NewWriter(w io.Writer, pool *rib.PoolImage) (*Writer, error) {
	sw := &Writer{w: w, crc: crc32.NewIEEE(), c: codec{mode: modeEncode}}
	sw.c.b = binary.LittleEndian.AppendUint32([]byte(magic), Version)
	if err := section(sw, secPool, pool, walkPool); err != nil {
		return nil, err
	}
	return sw, nil
}

// Peer writes one peer section. Peers must come in strictly ascending
// (AS, BGPID) order, the order Read requires.
func (sw *Writer) Peer(p *PeerImage) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.peers > 0 && !keyLess(sw.last, p.Key) {
		sw.err = fmt.Errorf("snapshot: peers not ascending at %s", p.Key)
		return sw.err
	}
	sw.last = p.Key
	sw.peers++
	return section(sw, secPeer, p, walkPeer)
}

// Close writes the end section and the checksum. It does not close the
// underlying writer.
func (sw *Writer) Close() error {
	if sw.err != nil {
		return sw.err
	}
	b := binary.LittleEndian.AppendUint32(sw.c.b, secEnd)
	b = binary.LittleEndian.AppendUint64(b, 4)
	sw.crc.Write(b)
	// The checksum itself is outside the hashed span.
	b = binary.LittleEndian.AppendUint32(b, sw.crc.Sum32())
	_, err := sw.w.Write(b)
	sw.c.b, sw.err = nil, errWriterClosed
	return err
}

// section appends one section of the given kind to the buffer — sized
// first by the walk's size pass, so it grows at most once and the
// encode pass fills it in place — then writes out and hashes everything
// buffered, and rewinds the buffer.
func section[T any](sw *Writer, kind uint32, v *T, walk func(*codec, *T)) error {
	sw.size = codec{mode: modeSize}
	walk(&sw.size, v)
	n, b, start := sw.size.n, sw.c.b, len(sw.c.b)
	if need := start + 12 + n; cap(b) < need {
		b = append(make([]byte, 0, need), b...)
	}
	b = b[:start+12+n]
	binary.LittleEndian.PutUint32(b[start:], kind)
	binary.LittleEndian.PutUint64(b[start+4:], uint64(n))
	sw.c.b, sw.c.n = b, start+12
	walk(&sw.c, v)
	if sw.c.n != len(b) {
		sw.err = fmt.Errorf("snapshot: section %d sized at %d bytes, encoded to %d", kind, n, sw.c.n-start-12)
		return sw.err
	}
	sw.crc.Write(b)
	_, sw.err = sw.w.Write(b)
	sw.c.b = b[:0]
	return sw.err
}

// Write serializes img to w: NewWriter, a Peer call per peer, Close.
func Write(w io.Writer, img *FleetImage) error {
	sw, err := NewWriter(w, &img.Pool)
	if err != nil {
		return err
	}
	for i := range img.Peers {
		if err := sw.Peer(&img.Peers[i]); err != nil {
			return err
		}
	}
	return sw.Close()
}

// Read parses one fleet image from r, verifying the trailing checksum.
// A malformed stream fails with an error wrapping ErrCorrupt, one of
// another format version with ErrVersion.
func Read(r io.Reader) (*FleetImage, error) {
	cr := &crcReader{r: r, crc: crc32.NewIEEE()}
	hdr := make([]byte, len(magic)+4)
	if _, err := io.ReadFull(cr, hdr); err != nil {
		return nil, readErr("header", err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, corrupt("bad magic %q", hdr[:len(magic)])
	}
	if v := binary.LittleEndian.Uint32(hdr[len(magic):]); v != Version {
		return nil, fmt.Errorf("%w %d, want %d", ErrVersion, v, Version)
	}
	img := &FleetImage{}
	poolSeen := false
	sec := make([]byte, 12)
	// One payload buffer serves every section: the walk copies out
	// whatever it keeps.
	var payload []byte
	for {
		if _, err := io.ReadFull(cr, sec); err != nil {
			return nil, readErr("section header", err)
		}
		kind, n := binary.LittleEndian.Uint32(sec), binary.LittleEndian.Uint64(sec[4:])
		if kind == secEnd {
			if n != 4 {
				return nil, corrupt("end section length %d", n)
			}
			want := cr.crc.Sum32()
			var sum [4]byte
			if _, err := io.ReadFull(cr.r, sum[:]); err != nil {
				return nil, readErr("checksum", err)
			}
			if got := binary.LittleEndian.Uint32(sum[:]); got != want {
				return nil, corrupt("checksum mismatch: stored %#x, computed %#x", got, want)
			}
			break
		}
		if n > 1<<34 {
			return nil, corrupt("section %d length %d implausible", kind, n)
		}
		var err error
		if payload, err = readPayload(cr, payload, int(n)); err != nil {
			return nil, readErr(fmt.Sprintf("section %d payload", kind), err)
		}
		c := &codec{mode: modeDecode, b: payload}
		switch kind {
		case secPool:
			if poolSeen {
				return nil, corrupt("duplicate pool section")
			}
			poolSeen = true
			walkPool(c, &img.Pool)
		case secPeer:
			if !poolSeen {
				return nil, corrupt("peer section before pool section")
			}
			img.Peers = append(img.Peers, PeerImage{})
			walkPeer(c, &img.Peers[len(img.Peers)-1])
		default:
			return nil, corrupt("unknown section kind %d", kind)
		}
		if err := c.failure(); err != nil {
			return nil, fmt.Errorf("%w (section %d)", err, kind)
		}
		if k := len(img.Peers); kind == secPeer && k > 1 && !keyLess(img.Peers[k-2].Key, img.Peers[k-1].Key) {
			return nil, corrupt("peers not ascending at %s", img.Peers[k-1].Key)
		}
	}
	if !poolSeen {
		return nil, corrupt("no pool section")
	}
	return img, nil
}

// readErr reports a failed read of part of the stream: one that ends
// early is truncated, so corrupt; any other failure is the reader's.
func readErr(part string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return corrupt("%s: %w", part, err)
	}
	return fmt.Errorf("snapshot: %s: %w", part, err)
}

// readPayload reads an n-byte section payload into buf, reusing its
// array when it is large enough. A payload larger than buf grows in
// steps no bigger than what has already arrived, so a corrupt length
// fails at the end of the stream instead of allocating it up front.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	if n <= cap(buf) {
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(len(buf), 64<<10))
		buf = slices.Grow(buf, step)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+step]); err != nil {
			return buf, err
		}
		buf = buf[:len(buf)+step]
	}
	return buf, nil
}

func keyLess(a, b event.PeerKey) bool {
	if a.AS != b.AS {
		return a.AS < b.AS
	}
	return a.BGPID < b.BGPID
}

// --- the format: one walk per section -----------------------------------

func walkPool(c *codec, p *rib.PoolImage) {
	for i := range list(c, &p.Links, 8) {
		link(c, &p.Links[i])
	}
	for i := range rows(c, &p.Paths, 12) {
		u32(c, &p.Paths[i].ID)
		u32s(c, &p.Paths[i].Path)
	}
}

func walkTable(c *codec, t *rib.TableImage) {
	u32(c, &t.LocalAS)
	for i := range list(c, &t.Routes, 12) {
		u64(c, &t.Routes[i].Prefix)
		u32(c, &t.Routes[i].Path)
	}
}

func walkPeer(c *codec, p *PeerImage) {
	st := &p.State
	u32(c, &p.Key.AS)
	u32(c, &p.Key.BGPID)
	walkTable(c, &st.Table)
	for i := range rows(c, &st.Alts, 16) {
		u32(c, &st.Alts[i].Neighbor)
		walkTable(c, &st.Alts[i].Table)
	}
	for i := range list(c, &st.History.Counts, 16) {
		u64(c, &st.History.Counts[i].Value)
		u64(c, &st.History.Counts[i].Count)
	}
	u8(c, &st.Detector.State)
	u64(c, &st.Detector.Started)
	u64(c, &st.Detector.Count)
	for i := range list(c, &st.Detector.Times, 8) {
		u64(c, &st.Detector.Times[i])
	}
	if opt(c, &st.Plan) {
		pl := st.Plan
		u64(c, &pl.LocalAS)
		u64(c, &pl.Depth)
		for i := range rows(c, &pl.Backups, 16) {
			u64(c, &pl.Backups[i].Prefix)
			u32s(c, &pl.Backups[i].Row)
		}
		for i := range list(c, &pl.Assigned, 12) {
			u32(c, &pl.Assigned[i].NH)
			u64(c, &pl.Assigned[i].Count)
		}
	}
	if opt(c, &st.Scheme) {
		s := st.Scheme
		u64(c, &s.Cfg.TagBits)
		u64(c, &s.Cfg.PathBits)
		u64(c, &s.Cfg.MaxDepth)
		u64(c, &s.Cfg.MinPrefixes)
		u64(c, &s.Cfg.NHBits)
		u32(c, &s.LocalAS)
		for i := range rows(c, &s.LinkDicts, 8) {
			for j := range list(c, &s.LinkDicts[i], 16) {
				link(c, &s.LinkDicts[i][j].Link)
				u64(c, &s.LinkDicts[i][j].Value)
			}
		}
		for i := range list(c, &s.NHs, 12) {
			u32(c, &s.NHs[i].AS)
			u64(c, &s.NHs[i].Value)
		}
		tags(c, &s.Tags)
	}
	tags(c, &st.FIB.Tags)
	for i := range list(c, &st.FIB.Rules, 28) {
		r := &st.FIB.Rules[i]
		u64(c, &r.Value)
		u64(c, &r.Mask)
		u32(c, &r.NextHop)
		u64(c, &r.Priority)
	}
	u64(c, &st.FIB.Writes)
	u64(c, &st.FIB.Elapsed)
	u64(c, &st.ProvisionSig)
	c.bool(&st.HaveProvision)
	u64(c, &st.LastWithdrawal)
	u64(c, &st.BurstStartAt)
	c.bool(&st.RerouteActive)
	for i := range list(c, &st.OwnLinks, 8) {
		link(c, &st.OwnLinks[i])
	}
	c.bool(&st.ExtActive)
	for i := range list(c, &st.ExtLinks, 8) {
		link(c, &st.ExtLinks[i])
	}
	u64(c, &st.ExtEpoch)
}

func link(c *codec, l *topology.Link) {
	u32(c, &l.A)
	u32(c, &l.B)
}

// tags walks a stage-1 assignment; the scheme's and the FIB's are the
// same sorted (prefix, tag) slice.
func tags(c *codec, ts *[]encoding.TagAssignment) {
	for i := range list(c, ts, 16) {
		u64(c, &(*ts)[i].Prefix)
		u64(c, &(*ts)[i].Tag)
	}
}

// --- the codec ----------------------------------------------------------

type mode uint8

const (
	modeSize mode = iota
	modeEncode
	modeDecode
)

// codec runs a walk in one of three modes, with n the bytes walked so
// far. Sizing has no buffer and only counts; encoding fills b, sized by
// a size pass first; decoding reads b. A decode that runs short, or that
// fails a check, leaves n past the end of b, so every later field reads
// nothing and the first failure is the one reported.
type codec struct {
	mode mode
	b    []byte
	n    int
	err  error
	// arena backs decoded u32s rows: the short per-row slices a big
	// section decodes (plan backup rows, pooled paths) are carved out of
	// shared chunks instead of being allocated one by one.
	arena []uint32
}

// next advances over the next k bytes and returns them for the decoder
// to read — or nil when sizing, or once the walk has run past the end
// of b.
func (c *codec) next(k int) []byte {
	n := c.n
	c.n += k
	if c.n > len(c.b) {
		return nil
	}
	return c.b[n:c.n]
}

// fail ends a decode with an error, unless it has already ended.
func (c *codec) fail(format string, args ...any) {
	if c.n <= len(c.b) {
		c.err = corrupt(format, args...)
		c.n = len(c.b) + 1
	}
}

// failure reports why a decode ended early, nil if it reached the end
// of its fields. A payload with bytes after them fails too.
func (c *codec) failure() error {
	switch {
	case c.err != nil:
		return c.err
	case c.n > len(c.b):
		return corrupt("payload of %d bytes is truncated", len(c.b))
	case c.n < len(c.b):
		return corrupt("%d trailing bytes", len(c.b)-c.n)
	}
	return nil
}

// The primitives write in place when encoding: the size pass made b
// exactly long enough, so an index past it is a bug in a walk. Sizing
// and decoding go through next.

func u8[T ~int](c *codec, v *T) {
	if c.mode == modeEncode {
		c.b[c.n] = uint8(*v)
		c.n++
	} else if b := c.next(1); b != nil {
		*v = T(b[0])
	}
}

func u32[T ~uint32](c *codec, v *T) {
	if c.mode == modeEncode {
		binary.LittleEndian.PutUint32(c.b[c.n:c.n+4], uint32(*v))
		c.n += 4
	} else if b := c.next(4); b != nil {
		*v = T(binary.LittleEndian.Uint32(b))
	}
}

func u64[T ~uint64 | ~int64 | ~int](c *codec, v *T) {
	if c.mode == modeEncode {
		binary.LittleEndian.PutUint64(c.b[c.n:c.n+8], uint64(*v))
		c.n += 8
	} else if b := c.next(8); b != nil {
		*v = T(binary.LittleEndian.Uint64(b))
	}
}

// bool is one byte that decodes only from 0 or 1.
func (c *codec) bool(v *bool) {
	x := 0
	if *v {
		x = 1
	}
	u8(c, &x)
	if c.mode == modeDecode {
		if x > 1 {
			c.fail("bad boolean at offset %d", c.n-1)
		}
		*v = x == 1
	}
}

// count walks an array's u64 element count. Decoding bounds it by the
// bytes left, at least least bytes an element, so a corrupt count
// cannot drive a giant allocation.
func (c *codec) count(n, least int) int {
	v := uint64(n)
	u64(c, &v)
	if c.mode == modeDecode && c.n <= len(c.b) && v > uint64(len(c.b)-c.n)/uint64(least) {
		c.fail("count %d at offset %d exceeds remaining payload", v, c.n-8)
		return 0
	}
	return int(v)
}

// list walks the count of an array of width-byte elements and returns
// the elements the walk must still visit: none when sizing, which
// counts them whole, and all of them otherwise.
func list[T any](c *codec, s *[]T, width int) []T {
	if c.mode == modeSize {
		c.n += 8 + width*len(*s)
		return nil
	}
	return rows(c, s, width)
}

// rows walks the count of an array whose elements take at least least
// bytes each, and returns the elements to visit: all of them, in every
// mode. Decoding first makes *s that long, nil if 0.
func rows[T any](c *codec, s *[]T, least int) []T {
	n := c.count(len(*s), least)
	if c.mode == modeDecode {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	return *s
}

// opt walks the presence boolean of an optional part and reports
// whether the part follows; decoding allocates it.
func opt[T any](c *codec, p **T) bool {
	present := *p != nil
	c.bool(&present)
	if present && c.mode == modeDecode {
		*p = new(T)
	}
	return present
}

// u32s walks a counted []uint32 row. Sizing counts it inline, as the
// size pass visits every plan row.
func u32s(c *codec, v *[]uint32) {
	if c.mode == modeSize {
		c.n += 8 + 4*len(*v)
	} else {
		c.row(v)
	}
}

// row is u32s encoding or decoding. Decoded rows are carved from the
// codec's arena and capacity-capped, so an append by the consumer
// cannot clobber a neighbor.
func (c *codec) row(v *[]uint32) {
	if c.mode == modeEncode {
		b := c.b[c.n : c.n+8+4*len(*v)]
		binary.LittleEndian.PutUint64(b, uint64(len(*v)))
		for i, x := range *v {
			binary.LittleEndian.PutUint32(b[8+4*i:], x)
		}
		c.n += len(b)
		return
	}
	n := c.count(len(*v), 4)
	*v = nil
	b := c.next(4 * n)
	if b == nil || n == 0 {
		return
	}
	if cap(c.arena)-len(c.arena) < n {
		// A chunk never outgrows what the rest of the payload can hold,
		// so a small section does not pay for a full one.
		c.arena = make([]uint32, 0, max(n, min(1<<16, (len(c.b)-c.n)/4+n)))
	}
	k := len(c.arena)
	c.arena = c.arena[:k+n]
	for i := range n {
		c.arena[k+i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	*v = c.arena[k : k+n : k+n]
}

type crcReader struct {
	r   io.Reader
	crc hash.Hash32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc.Write(p[:n])
	return n, err
}
