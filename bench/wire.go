package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"time"

	"swift/internal/bgp"
	"swift/internal/bmp"
	"swift/internal/mrt"
	"swift/internal/netaddr"
)

// epoch is the wall time of virtual time 0: every table dump carries it,
// so a peer's stream offset (event.At) equals msg.at exactly.
var epoch = time.Unix(1_700_000_000, 0).UTC()

func wallOf(at int64) time.Time { return epoch.Add(time.Duration(at) * time.Microsecond) }

// minChunk is the smallest closed-loop write: large enough that syscall
// overhead on the generator side stays off the measurement.
const minChunk = 32 << 10

// chunk is one write of an encoded stream: the bytes up to end, carrying
// the messages up to and including last. Open-loop streams give each
// chunk the time it is due, as an offset from the start of the phase;
// closed loops write each chunk as soon as TCP takes the previous one.
type chunk struct {
	end  int
	last int32
	due  time.Duration
}

// wire is a plan encoded as BMP: head opens the session (Initiation and
// one Peer Up per peer), body is the plan's messages — the part a closed
// loop replays — and tail terminates it.
type wire struct {
	plan   *plan
	head   []byte
	body   []byte
	tail   []byte
	end    []int // end[i] is the body offset just past message i
	chunks []chunk
	events int // prefixes withdrawn + announced by one replay of body
	sum    [sha256.Size]byte
}

// tsOffset is where a Route Monitoring frame keeps the seconds of its
// per-peer timestamp: past the common header and 34 bytes into the
// per-peer header.
const tsOffset = bmp.HeaderLen + 34

func (w *world) peerHeader(i int, at int64) bmp.PeerHeader {
	p := &w.peers[i]
	h := bmp.PeerHeader{AS: p.key.AS, BGPID: p.key.BGPID}
	h.SetIPv4(p.addr)
	h.SetTimestamp(wallOf(at))
	return h
}

// appendOpen appends the messages that open a BMP session for every
// peer of the world.
func (w *world) appendOpen(dst []byte) []byte {
	dst = mustAppend(dst, &bmp.Initiation{SysName: "swift-bench", SysDescr: "wire-to-rule ledger generator"})
	for i, p := range w.peers {
		dst = mustAppend(dst, &bmp.PeerUp{
			Peer:       w.peerHeader(i, 0),
			LocalPort:  179,
			RemotePort: 179,
			SentOpen:   &bgp.Open{AS: localAS, HoldTime: 90, RouterID: localAS},
			RecvOpen:   &bgp.Open{AS: p.key.AS, HoldTime: 90, RouterID: p.key.BGPID},
		})
	}
	return dst
}

func mustAppend(dst []byte, m bmp.Message) []byte {
	out, err := m.AppendWire(dst)
	if err != nil {
		panic("bench: encoding a generated message: " + err.Error())
	}
	return out
}

// update renders msg m as a BGP UPDATE, reusing u's slices.
func (w *world) update(u *bgp.Update, m *msg) {
	u.Withdrawn, u.NLRI, u.Attrs.HasNextHop = u.Withdrawn[:0], u.NLRI[:0], false
	if m.state == 0 {
		u.Withdrawn, _ = w.appendPrefixes(u.Withdrawn, nil, m)
		return
	}
	u.NLRI, u.Attrs.ASPath = w.appendPrefixes(u.NLRI, u.Attrs.ASPath[:0], m)
	u.Attrs.HasNextHop, u.Attrs.NextHop = true, w.peers[m.peer].addr
}

// encodeTable renders every peer's initial table as one BMP session: an
// in-band dump, one UPDATE per origin, closed by End-of-RIB.
func (w *world) encodeTable() []byte {
	buf := w.appendOpen(nil)
	var u bgp.Update
	for i, p := range w.peers {
		for slot, gr := range p.groups {
			for o := 0; o < gr.origins; o++ {
				m := msg{peer: int16(i), first: int32(p.offs[slot] + o*originPrefixes), n: originPrefixes, state: routePresent}
				w.update(&u, &m)
				buf = mustAppend(buf, &bmp.RouteMonitoring{Peer: w.peerHeader(i, 0), Update: &u})
			}
		}
		buf = mustAppend(buf, &bmp.RouteMonitoring{Peer: w.peerHeader(i, 0), Update: &bgp.Update{}})
	}
	return mustAppend(buf, &bmp.Termination{Reason: bmp.ReasonAdminClose})
}

// encode renders a plan as a BMP session. rate > 0 makes the stream
// open-loop: message i is due when the events before it would have been
// offered at rate events/s, rounded down to a whole tick, and all
// messages of a tick form one write. rate == 0 cuts closed-loop chunks
// of at least minChunk bytes.
func (w *world) encode(p *plan, rate float64, tick time.Duration) *wire {
	out := &wire{plan: p, head: w.appendOpen(nil), end: make([]int, len(p.msgs))}
	out.tail = mustAppend(nil, &bmp.Termination{Reason: bmp.ReasonAdminClose})
	var u bgp.Update
	start := 0
	due := time.Duration(0)
	for i := range p.msgs {
		m := &p.msgs[i]
		w.update(&u, m)
		at := due
		if rate > 0 {
			at = (time.Duration(float64(out.events)/rate*float64(time.Second)) / tick) * tick
		}
		cut := rate == 0 && len(out.body)-start >= minChunk || rate > 0 && at != due
		if cut && i > 0 {
			out.chunks = append(out.chunks, chunk{end: len(out.body), last: int32(i - 1), due: due})
			start = len(out.body)
		}
		due = at
		out.body = mustAppend(out.body, &bmp.RouteMonitoring{Peer: w.peerHeader(int(m.peer), m.at), Update: &u})
		out.end[i] = len(out.body)
		out.events += int(m.n)
	}
	out.chunks = append(out.chunks, chunk{end: len(out.body), last: int32(len(p.msgs) - 1), due: due})
	h := sha256.New()
	h.Write(out.head)
	h.Write(out.body)
	h.Write(out.tail)
	h.Sum(out.sum[:0])
	return out
}

// chunkOf returns the chunk that carries message i.
func (s *wire) chunkOf(i int32) int {
	return sort.Search(len(s.chunks), func(k int) bool { return s.chunks[k].last >= i })
}

// shift moves every frame's timestamp one plan span into the future —
// the only generator work a replay cycle needs. It must only run once
// the previous cycle's bytes have all been handed to the kernel.
func (s *wire) shift() {
	span := uint32(s.plan.span / sec)
	start := 0
	for _, end := range s.end {
		ts := s.body[start+tsOffset : start+tsOffset+4]
		binary.BigEndian.PutUint32(ts, binary.BigEndian.Uint32(ts)+span)
		start = end
	}
}

// archive is one peer's share of a plan as a collector would have
// archived it: a TABLE_DUMP_V2 snapshot and a BGP4MP update file.
type archive struct {
	rib     []byte
	updates []byte
	recOf   []int32 // recOf[i] is the record holding plan message i (other peers' messages: unset)
	end     []int   // end[k] is the updates offset just past record k
	routes  int
	events  int
}

// encodeArchives renders the world's tables and a plan as MRT, one
// archive per peer. MRT timestamps are whole seconds, so the plan must
// have been generated on a one-second grain.
func (w *world) encodeArchives(p *plan) ([]archive, [sha256.Size]byte) {
	out := make([]archive, len(w.peers))
	bufs := make([]bytes.Buffer, len(w.peers))
	writers := make([]*mrt.Writer, len(w.peers))
	h := sha256.New()
	for i, pi := range w.peers {
		out[i].rib = w.encodeRIB(i)
		out[i].routes = pi.size
		h.Write(out[i].rib)
		writers[i] = mrt.NewWriter(&bufs[i])
		out[i].recOf = make([]int32, len(p.msgs))
	}
	var u bgp.Update
	for k := range p.msgs {
		m := &p.msgs[k]
		i := int(m.peer)
		w.update(&u, m)
		check(writers[i].WriteBGP4MP(wallOf(m.at), w.peers[i].key.AS, localAS, w.peers[i].addr, 0x0a0000fe, &u))
		check(writers[i].Flush())
		out[i].recOf[k] = int32(len(out[i].end))
		out[i].end = append(out[i].end, bufs[i].Len())
		out[i].events += int(m.n)
	}
	var sum [sha256.Size]byte
	for i := range out {
		out[i].updates = bufs[i].Bytes()
		h.Write(out[i].updates)
	}
	h.Sum(sum[:0])
	return out, sum
}

// encodeRIB renders peer i's initial table as a TABLE_DUMP_V2 file.
func (w *world) encodeRIB(i int) []byte {
	pi := &w.peers[i]
	var rib bytes.Buffer
	mw := mrt.NewWriter(&rib)
	check(mw.WritePeerIndexTable(epoch, 0x0a0000fe, []mrt.PeerEntry{{ID: pi.key.BGPID, IP: pi.addr, AS: pi.key.AS}}))
	seq := uint32(0)
	w.routes(i, func(p netaddr.Prefix, path []uint32) {
		check(mw.WriteRIBIPv4(epoch, &mrt.RIBRecord{
			Sequence: seq,
			Prefix:   p,
			Entries:  []mrt.RIBEntry{{Originated: epoch, Attrs: bgp.Attrs{ASPath: path, HasNextHop: true, NextHop: pi.addr}}},
		}))
		seq++
	})
	check(mw.Flush())
	return rib.Bytes()
}

// sample draws n destination addresses for the forwarding sweeps: most
// inside the peer's announced prefixes, one in sixteen outside every
// table so the reject path is exercised too.
func (w *world) sample(peer, n int, seed int64) []uint32 {
	p := &w.peers[peer]
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(peer) + 1
	next := func() uint64 { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	addrs := make([]uint32, n)
	for k := range addrs {
		r := next()
		if r&15 == 0 {
			addrs[k] = 0xac100000 | uint32(r>>8)&0xfffff // 172.16/12: announced by nobody
			continue
		}
		slot, o, j := p.locate(int(r>>8) % p.size)
		addrs[k] = w.prefix(p.groups[slot].g, o, j).Addr() | uint32(r>>40)&0xff
	}
	return addrs
}

func check(err error) {
	if err != nil {
		panic("bench: " + err.Error())
	}
}
