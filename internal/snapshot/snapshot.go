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
// Writer streams the format a section at a time — the pool, then one
// peer per call — so a fleet is checkpointed without ever holding a
// whole FleetImage; Write is the same writer run over one. Read
// decodes a whole image and reuses one payload buffer across sections.
package snapshot

import (
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"slices"
	"time"

	"swift/internal/burst"
	"swift/internal/encoding"
	"swift/internal/event"
	"swift/internal/netaddr"
	"swift/internal/reroute"
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
// sized up front from the section's exact length and rewound once the
// section is written, so the encoder's memory is the largest section,
// not the file.
//
// The first error — from w, or a peer out of order — is latched: every
// later call returns it.
type Writer struct {
	w     io.Writer
	crc   hash.Hash32
	e     enc
	start int // offset of the open section's header in e.b
	last  event.PeerKey
	peers int
	err   error
}

var errWriterClosed = errors.New("snapshot: writer closed")

// NewWriter writes the header and pool to w and returns the writer the
// peer sections follow through.
func NewWriter(w io.Writer, pool *rib.PoolImage) (*Writer, error) {
	sw := &Writer{w: w, crc: crc32.NewIEEE()}
	sw.e.b = make([]byte, 0, len(magic)+4+12+poolSize(pool))
	sw.e.b = append(sw.e.b, magic...)
	sw.e.u32(Version)
	sw.open(secPool)
	encodePool(&sw.e, pool)
	if err := sw.flush(); err != nil {
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
	if need := 12 + peerSize(p); cap(sw.e.b) < need {
		sw.e.b = make([]byte, 0, need)
	}
	sw.open(secPeer)
	encodePeer(&sw.e, p)
	return sw.flush()
}

// Close writes the end section and the checksum. It does not close the
// underlying writer.
func (sw *Writer) Close() error {
	if sw.err != nil {
		return sw.err
	}
	sw.e.u32(secEnd)
	sw.e.u64(4)
	sw.crc.Write(sw.e.b)
	// The checksum itself is outside the hashed span.
	sw.e.u32(sw.crc.Sum32())
	_, err := sw.w.Write(sw.e.b)
	sw.e.b, sw.err = nil, errWriterClosed
	return err
}

// open starts a section in the encoder buffer: its header goes in with
// a zero length that flush patches once the payload is encoded.
func (sw *Writer) open(kind uint32) {
	sw.start = len(sw.e.b)
	sw.e.u32(kind)
	sw.e.u64(0)
}

// flush completes the open section, writes out and hashes everything
// buffered, and rewinds the buffer for the next section.
func (sw *Writer) flush() error {
	putU64(sw.e.b[sw.start+4:], uint64(len(sw.e.b)-sw.start-12))
	sw.crc.Write(sw.e.b)
	_, sw.err = sw.w.Write(sw.e.b)
	sw.e.b = sw.e.b[:0]
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
func Read(r io.Reader) (*FleetImage, error) {
	cr := &crcReader{r: r, crc: crc32.NewIEEE()}
	hdr := make([]byte, len(magic)+4)
	if _, err := io.ReadFull(cr, hdr); err != nil {
		return nil, fmt.Errorf("snapshot: header: %w", err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", hdr[:len(magic)])
	}
	if v := leU32(hdr[len(magic):]); v != Version {
		return nil, fmt.Errorf("snapshot: version %d, want %d", v, Version)
	}
	img := &FleetImage{}
	poolSeen := false
	sec := make([]byte, 12)
	// One payload buffer serves every section: the decoders copy out
	// whatever they keep.
	var payload []byte
	for {
		if _, err := io.ReadFull(cr, sec); err != nil {
			return nil, fmt.Errorf("snapshot: section header: %w", err)
		}
		kind, n := leU32(sec), leU64(sec[4:])
		if kind == secEnd {
			if n != 4 {
				return nil, fmt.Errorf("snapshot: end section length %d", n)
			}
			want := cr.crc.Sum32()
			var sum [4]byte
			if _, err := io.ReadFull(cr.r, sum[:]); err != nil {
				return nil, fmt.Errorf("snapshot: checksum: %w", err)
			}
			if got := leU32(sum[:]); got != want {
				return nil, fmt.Errorf("snapshot: checksum mismatch: stored %#x, computed %#x", got, want)
			}
			break
		}
		if n > 1<<34 {
			return nil, fmt.Errorf("snapshot: section %d length %d implausible", kind, n)
		}
		var err error
		if payload, err = readPayload(cr, payload, int(n)); err != nil {
			return nil, fmt.Errorf("snapshot: section %d payload: %w", kind, err)
		}
		d := &dec{b: payload}
		switch kind {
		case secPool:
			if poolSeen {
				return nil, fmt.Errorf("snapshot: duplicate pool section")
			}
			poolSeen = true
			decodePool(d, &img.Pool)
		case secPeer:
			if !poolSeen {
				return nil, fmt.Errorf("snapshot: peer section before pool section")
			}
			var p PeerImage
			decodePeer(d, &p)
			if d.err == nil {
				if k := len(img.Peers); k > 0 && !keyLess(img.Peers[k-1].Key, p.Key) {
					return nil, fmt.Errorf("snapshot: peers not ascending at %s", p.Key)
				}
				img.Peers = append(img.Peers, p)
			}
		default:
			return nil, fmt.Errorf("snapshot: unknown section kind %d", kind)
		}
		if d.err != nil {
			return nil, d.err
		}
		if d.off != len(d.b) {
			return nil, fmt.Errorf("snapshot: section %d has %d trailing bytes", kind, len(d.b)-d.off)
		}
	}
	if !poolSeen {
		return nil, fmt.Errorf("snapshot: no pool section")
	}
	return img, nil
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

// --- section encodings -------------------------------------------------

func encodePool(e *enc, p *rib.PoolImage) {
	e.u64(uint64(len(p.Links)))
	for _, l := range p.Links {
		e.link(l)
	}
	e.u64(uint64(len(p.Paths)))
	for _, pi := range p.Paths {
		e.u32(uint32(pi.ID))
		e.u32s(pi.Path)
	}
}

// poolSize is the exact payload length encodePool writes for p.
func poolSize(p *rib.PoolImage) int {
	n := 8 + 8*len(p.Links) + 8
	for _, pi := range p.Paths {
		n += 4 + 8 + 4*len(pi.Path)
	}
	return n
}

func decodePool(d *dec, p *rib.PoolImage) {
	n := d.count(8)
	p.Links = make([]topology.Link, n)
	for i := range p.Links {
		p.Links[i] = d.link()
	}
	n = d.count(12)
	p.Paths = make([]rib.PathImage, n)
	for i := range p.Paths {
		p.Paths[i].ID = rib.PathID(d.u32())
		p.Paths[i].Path = d.u32sArena()
	}
}

func encodeTable(e *enc, t *rib.TableImage) {
	e.u32(t.LocalAS)
	e.u64(uint64(len(t.Routes)))
	for _, r := range t.Routes {
		e.u64(uint64(r.Prefix))
		e.u32(uint32(r.Path))
	}
}

func decodeTable(d *dec, t *rib.TableImage) {
	t.LocalAS = d.u32()
	n := d.count(12)
	t.Routes = make([]rib.RouteImage, n)
	for i := range t.Routes {
		t.Routes[i].Prefix = d.prefix()
		t.Routes[i].Path = rib.PathID(d.u32())
	}
}

func encodePeer(e *enc, p *PeerImage) {
	st := &p.State
	e.u32(p.Key.AS)
	e.u32(p.Key.BGPID)
	encodeTable(e, &st.Table)
	e.u64(uint64(len(st.Alts)))
	for i := range st.Alts {
		e.u32(st.Alts[i].Neighbor)
		encodeTable(e, &st.Alts[i].Table)
	}
	e.u64(uint64(len(st.History.Counts)))
	for _, c := range st.History.Counts {
		e.i64(int64(c.Value))
		e.i64(int64(c.Count))
	}
	e.u8(uint8(st.Detector.State))
	e.i64(int64(st.Detector.Started))
	e.i64(int64(st.Detector.Count))
	e.u64(uint64(len(st.Detector.Times)))
	for _, t := range st.Detector.Times {
		e.i64(int64(t))
	}
	e.bool(st.Plan != nil)
	if st.Plan != nil {
		e.i64(int64(st.Plan.LocalAS))
		e.i64(int64(st.Plan.Depth))
		e.u64(uint64(len(st.Plan.Backups)))
		for _, b := range st.Plan.Backups {
			e.u64(uint64(b.Prefix))
			e.u32s(b.Row)
		}
		e.u64(uint64(len(st.Plan.Assigned)))
		for _, a := range st.Plan.Assigned {
			e.u32(a.NH)
			e.i64(int64(a.Count))
		}
	}
	e.bool(st.Scheme != nil)
	if st.Scheme != nil {
		s := st.Scheme
		e.i64(int64(s.Cfg.TagBits))
		e.i64(int64(s.Cfg.PathBits))
		e.i64(int64(s.Cfg.MaxDepth))
		e.i64(int64(s.Cfg.MinPrefixes))
		e.i64(int64(s.Cfg.NHBits))
		e.u32(s.LocalAS)
		e.u64(uint64(len(s.LinkDicts)))
		for _, dict := range s.LinkDicts {
			e.u64(uint64(len(dict)))
			for _, lv := range dict {
				e.link(lv.Link)
				e.u64(lv.Value)
			}
		}
		e.u64(uint64(len(s.NHs)))
		for _, nv := range s.NHs {
			e.u32(nv.AS)
			e.u64(nv.Value)
		}
		e.tags(s.Tags)
	}
	e.tags(st.FIB.Tags)
	e.u64(uint64(len(st.FIB.Rules)))
	for _, r := range st.FIB.Rules {
		e.u64(uint64(r.Value))
		e.u64(uint64(r.Mask))
		e.u32(r.NextHop)
		e.i64(int64(r.Priority))
	}
	e.i64(int64(st.FIB.Writes))
	e.i64(int64(st.FIB.Elapsed))
	e.u64(st.ProvisionSig)
	e.bool(st.HaveProvision)
	e.i64(int64(st.LastWithdrawal))
	e.i64(int64(st.BurstStartAt))
	e.bool(st.RerouteActive)
	e.links(st.OwnLinks)
	e.bool(st.ExtActive)
	e.links(st.ExtLinks)
	e.u64(st.ExtEpoch)
}

// peerSize is the exact payload length encodePeer writes for p, field
// group by field group in encodePeer's order.
func peerSize(p *PeerImage) int {
	st := &p.State
	table := func(t *rib.TableImage) int { return 4 + 8 + 12*len(t.Routes) }
	n := 4 + 4 + table(&st.Table)
	n += 8
	for i := range st.Alts {
		n += 4 + table(&st.Alts[i].Table)
	}
	n += 8 + 16*len(st.History.Counts)
	n += 1 + 8 + 8 + 8 + 8*len(st.Detector.Times)
	n++
	if pl := st.Plan; pl != nil {
		n += 8 + 8 + 8
		for _, b := range pl.Backups {
			n += 8 + 8 + 4*len(b.Row)
		}
		n += 8 + 12*len(pl.Assigned)
	}
	n++
	if s := st.Scheme; s != nil {
		n += 5*8 + 4 + 8
		for _, dict := range s.LinkDicts {
			n += 8 + 16*len(dict)
		}
		n += 8 + 12*len(s.NHs)
		n += 8 + 16*len(s.Tags)
	}
	n += 8 + 16*len(st.FIB.Tags)
	n += 8 + 28*len(st.FIB.Rules)
	n += 8 + 8 + 8 + 1 + 8 + 8 + 1
	n += 8 + 8*len(st.OwnLinks) + 1 + 8 + 8*len(st.ExtLinks) + 8
	return n
}

func decodePeer(d *dec, p *PeerImage) {
	st := &p.State
	p.Key.AS = d.u32()
	p.Key.BGPID = d.u32()
	decodeTable(d, &st.Table)
	n := d.count(16)
	st.Alts = make([]swift.AltState, n)
	for i := range st.Alts {
		st.Alts[i].Neighbor = d.u32()
		decodeTable(d, &st.Alts[i].Table)
	}
	n = d.count(16)
	if n > 0 {
		st.History.Counts = make([]burst.HistoryCount, n)
		for i := range st.History.Counts {
			st.History.Counts[i].Value = int(d.i64())
			st.History.Counts[i].Count = int(d.i64())
		}
	}
	st.Detector.State = burst.State(d.u8())
	st.Detector.Started = time.Duration(d.i64())
	st.Detector.Count = int(d.i64())
	n = d.count(8)
	if n > 0 {
		st.Detector.Times = make([]time.Duration, n)
		for i := range st.Detector.Times {
			st.Detector.Times[i] = time.Duration(d.i64())
		}
	}
	if d.bool() {
		pl := &reroute.PlanImage{
			LocalAS: int(d.i64()),
			Depth:   int(d.i64()),
		}
		n = d.count(16)
		pl.Backups = make([]reroute.BackupRow, n)
		for i := range pl.Backups {
			pl.Backups[i].Prefix = d.prefix()
			pl.Backups[i].Row = d.u32sArena()
		}
		n = d.count(12)
		pl.Assigned = make([]reroute.NHCount, n)
		for i := range pl.Assigned {
			pl.Assigned[i].NH = d.u32()
			pl.Assigned[i].Count = int(d.i64())
		}
		st.Plan = pl
	}
	if d.bool() {
		s := &encoding.SchemeImage{}
		s.Cfg.TagBits = int(d.i64())
		s.Cfg.PathBits = int(d.i64())
		s.Cfg.MaxDepth = int(d.i64())
		s.Cfg.MinPrefixes = int(d.i64())
		s.Cfg.NHBits = int(d.i64())
		s.LocalAS = d.u32()
		n = d.count(8)
		s.LinkDicts = make([][]encoding.LinkValue, n)
		for i := range s.LinkDicts {
			m := d.count(16)
			s.LinkDicts[i] = make([]encoding.LinkValue, m)
			for j := range s.LinkDicts[i] {
				s.LinkDicts[i][j].Link = d.link()
				s.LinkDicts[i][j].Value = d.u64()
			}
		}
		n = d.count(12)
		s.NHs = make([]encoding.NHValue, n)
		for i := range s.NHs {
			s.NHs[i].AS = d.u32()
			s.NHs[i].Value = d.u64()
		}
		s.Tags = d.tags()
		st.Scheme = s
	}
	st.FIB.Tags = d.tags()
	n = d.count(28)
	if n > 0 {
		st.FIB.Rules = make([]encoding.Rule, n)
		for i := range st.FIB.Rules {
			st.FIB.Rules[i].Value = encoding.Tag(d.u64())
			st.FIB.Rules[i].Mask = encoding.Tag(d.u64())
			st.FIB.Rules[i].NextHop = d.u32()
			st.FIB.Rules[i].Priority = int(d.i64())
		}
	}
	st.FIB.Writes = int(d.i64())
	st.FIB.Elapsed = time.Duration(d.i64())
	st.ProvisionSig = d.u64()
	st.HaveProvision = d.bool()
	st.LastWithdrawal = time.Duration(d.i64())
	st.BurstStartAt = time.Duration(d.i64())
	st.RerouteActive = d.bool()
	st.OwnLinks = d.links()
	st.ExtActive = d.bool()
	st.ExtLinks = d.links()
	st.ExtEpoch = d.u64()
}

// --- primitives --------------------------------------------------------

// enc accumulates little-endian fixed-width fields.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func (e *enc) u64(v uint64) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (e *enc) i64(v int64) { e.u64(uint64(v)) }
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) link(l topology.Link) {
	e.u32(l.A)
	e.u32(l.B)
}
func (e *enc) links(ls []topology.Link) {
	e.u64(uint64(len(ls)))
	for _, l := range ls {
		e.link(l)
	}
}
func (e *enc) tags(ts []encoding.TagAssignment) {
	e.u64(uint64(len(ts)))
	for _, t := range ts {
		e.u64(uint64(t.Prefix))
		e.u64(uint64(t.Tag))
	}
}
func (e *enc) u32s(v []uint32) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.u32(x)
	}
}

// dec reads little-endian fixed-width fields, latching the first error.
type dec struct {
	b   []byte
	off int
	err error
	// arena backs u32sArena: the short per-row slices a big section
	// decodes (plan backup rows, pooled paths) are carved out of shared
	// chunks instead of being allocated one by one.
	arena []uint32
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.b)-d.off < n {
		d.fail("truncated payload at offset %d (need %d bytes)", d.off, n)
		return false
	}
	return true
}

func (d *dec) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := leU32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := leU64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad boolean at offset %d", d.off-1)
		return false
	}
}

func (d *dec) prefix() netaddr.Prefix { return netaddr.Prefix(d.u64()) }

func (d *dec) link() topology.Link {
	a := d.u32()
	b := d.u32()
	return topology.Link{A: a, B: b}
}

func (d *dec) links() []topology.Link {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	ls := make([]topology.Link, n)
	for i := range ls {
		ls[i] = d.link()
	}
	return ls
}

// tags decodes a stage-1 assignment — the scheme's and the FIB's are
// the same sorted (prefix, tag) slice.
func (d *dec) tags() []encoding.TagAssignment {
	n := d.count(16)
	if n == 0 {
		return nil
	}
	ts := make([]encoding.TagAssignment, n)
	for i := range ts {
		ts[i].Prefix = d.prefix()
		ts[i].Tag = encoding.Tag(d.u64())
	}
	return ts
}

func (d *dec) u32s() []uint32 {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	v := make([]uint32, n)
	for i := range v {
		v[i] = d.u32()
	}
	return v
}

// u32sArena is u32s carved out of the decoder's shared slab — for the
// tiny slices that come in the hundreds of thousands. Returned slices
// are capacity-capped so an append by the consumer cannot clobber a
// neighbor.
func (d *dec) u32sArena() []uint32 {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	if cap(d.arena)-len(d.arena) < n {
		// A chunk never outgrows what the rest of the payload can hold,
		// so a small section does not pay for a full one.
		d.arena = make([]uint32, 0, max(n, min(1<<16, (len(d.b)-d.off)/4)))
	}
	start := len(d.arena)
	for i := 0; i < n; i++ {
		d.arena = append(d.arena, d.u32())
	}
	return d.arena[start:len(d.arena):len(d.arena)]
}

// count reads an element count and bounds it by the bytes remaining
// (each element takes at least elemSize bytes), so a corrupt length
// cannot drive a giant allocation.
func (d *dec) count(elemSize int) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if max := uint64(len(d.b)-d.off) / uint64(elemSize); n > max {
		d.fail("count %d at offset %d exceeds remaining payload", n, d.off-8)
		return 0
	}
	return int(n)
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func leU64(b []byte) uint64 {
	return uint64(leU32(b)) | uint64(leU32(b[4:]))<<32
}

func putU64(b []byte, v uint64) {
	for i := range 8 {
		b[i] = byte(v >> (8 * i))
	}
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
