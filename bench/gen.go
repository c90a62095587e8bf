package main

import (
	"math/rand"

	"swift/internal/topology"
)

// msgKind says what role an UPDATE plays in the generated stream.
type msgKind uint8

const (
	kindChurn         msgKind = iota // route replacement or withdrawal noise
	kindBurstWithdraw                // withdrawals of a failed group
	kindBurstAnnounce                // BGP reconverging after the failure
	kindBurstClose                   // first event after the quiet gap: closes the burst
)

// msg is one BGP UPDATE on one peer's session before encoding: n
// prefixes, contiguous in the peer's local index space, withdrawn
// (state 0) or announced with the path the route state selects.
// Announced ranges never span origins, so they share one AS path.
type msg struct {
	at    int64 // virtual time on the peer's stream clock, µs after the table dump
	first int32
	n     int32
	burst int32 // index into plan.bursts, -1 outside bursts
	peer  int16
	kind  msgKind
	state route
}

// burstInfo is the script of one remote link failure seen on one peer.
type burstInfo struct {
	peer      int
	slot      int // position of the failed group in the peer's table
	link      topology.Link
	permanent bool // routes move to the alternate transit (full re-provision)
	open      bool // left open at end of stream: no close message
	joint     int  // joint failure id shared by fused peers, -1 when alone
	// vetoed marks the member of a joint failure that sees it mixed with an
	// unrelated failure on decoy, is scripted to name decoy first and to be
	// vetoed by fusion.
	vetoed   bool
	decoy    topology.Link
	wd       []int32
	closeMsg int32 // index of the closing message, -1 when open
	firstAt  int64 // virtual time of the first and last withdrawal
	lastAt   int64
	closeAt  int64
}

// plan is the generated input of one stream phase.
type plan struct {
	msgs   []msg
	bursts []burstInfo
	// span is the virtual time one replay of msgs covers; a cyclic plan
	// returns every route to its starting state, so the closed loops
	// replay it with timestamps shifted by span per cycle.
	span   int64
	cyclic bool
}

// Virtual-time steps. A burst delivers burstFrame withdrawals a second,
// so the detector's 10 s window plateaus at 2,000: above the 1,500
// default start threshold, below the 2,500 inference trigger, and — as
// the engine's history raises the threshold to the largest window it has
// seen — identical for every later burst on the peer.
const (
	usec        = int64(1)
	msec        = 1000 * usec
	sec         = 1000 * msec
	burstFrame  = 200
	burstGap    = 15 * sec // longer than the detector window: isolates bursts
	announceGap = 20 * msec
	churnGap    = 10 * msec // keeps withdrawal noise far below the threshold
)

// generator carries the state the plan builders share: the route state
// of every (peer, prefix) — which doubles as the naive reference model's
// starting point — and each peer's virtual clock.
type generator struct {
	w     *world
	rng   *rand.Rand
	state [][]route
	clock []int64
	begin []int64 // each clock when the current plan started
	// bursting marks peers between the first withdrawal of a burst and its
	// close. Withdrawal noise stays off them: one stray withdrawal inside
	// a burst's window would raise the largest window the engine's history
	// has seen, and with it the threshold every later burst must reach.
	bursting []bool
	// grain is the resolution of the transport's timestamps in µs: every
	// step is rounded up to it (1 for BMP, a whole second for MRT).
	grain int64
	p     plan
}

func newGenerator(w *world, seed int64, grain int64) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewSource(seed ^ 0x5bd1e995)), clock: make([]int64, len(w.peers)), begin: make([]int64, len(w.peers)), bursting: make([]bool, len(w.peers)), grain: grain}
	for _, p := range w.peers {
		st := make([]route, p.size)
		for i := range st {
			st[i] = routePresent
		}
		g.state = append(g.state, st)
	}
	return g
}

func (g *generator) emit(m msg, step int64) int32 {
	// A step finer than the transport's timestamps lands on the previous
	// message's timestamp; coarser ones round up to the grain.
	if step >= g.grain {
		g.clock[m.peer] += (step + g.grain - 1) / g.grain * g.grain
	}
	m.at = g.clock[m.peer]
	for i := m.first; i < m.first+m.n; i++ {
		g.state[m.peer][i] = m.state
	}
	g.p.msgs = append(g.p.msgs, m)
	return int32(len(g.p.msgs) - 1)
}

// finish closes the plan built so far and starts the next one. span is
// how far the furthest clock moved during the plan plus a burst gap,
// in whole seconds so cycle shifts stay exact in the BMP timestamp. A
// cyclic plan may be replayed up to maxCycles times, each a span later
// than the last, so every clock jumps that far ahead before the next
// plan starts: timestamps never run backwards across phases.
func (g *generator) finish(cyclic bool) *plan {
	var moved int64
	for i, c := range g.clock {
		if c-g.begin[i] > moved {
			moved = c - g.begin[i]
		}
	}
	g.p.span = (moved/sec + 1 + burstGap/sec) * sec
	g.p.cyclic = cyclic
	for i := range g.clock {
		if cyclic {
			g.clock[i] += maxCycles * g.p.span
		}
		g.begin[i] = g.clock[i]
	}
	p := g.p
	g.p = plan{}
	return &p
}

// block is one aligned run of prefixes inside an origin that
// replacement churn flips as a unit.
type block struct {
	first int32
	n     int32
}

// churnShape describes replacement churn: which slice of each origin's
// prefixes forms blocks of which size, and how often each size is drawn.
// Sizes partition the origin so blocks of different sizes never overlap
// and every announcement is a real path change, never a refresh.
type churnShape struct {
	sizes   []int     // prefixes per UPDATE
	counts  []int     // blocks of that size per origin (sum of size*count <= originPrefixes)
	weights []float64 // share of replacements of each size
	// noise is the share of messages that withdraw a single prefix, to be
	// re-announced noiseLag messages later.
	noise float64
	// paired makes every replacement two messages: the flip and, right
	// behind it, the flip back. The peer's RIB is then back on its
	// provisioned routes between messages, which is what lets a transient
	// failure's fallback find the signature it provisioned.
	paired bool
}

const noiseLag = 24

// deckSize is how many replacements one deal of the size-class deck covers.
const deckSize = 200

type churnOp struct {
	peer  int16
	size  int8 // index into shape.sizes; -1 = noise withdraw, -2 = noise re-announce
	block int32
}

// churner draws replacement churn one message at a time, so plan
// builders can weave it through bursts, and remembers what it drew:
// replaying the recorded operations flips every block a second time and
// brings every noise-withdrawn prefix back, which is how the cyclic
// plans return to the state they started in.
type churner struct {
	g      *generator
	shape  churnShape
	peers  []int
	noisy  func(peer int) bool
	blocks map[int][][]block // per peer, per size class
	single int               // size class of one-prefix blocks, -1 if none
	// deck holds the size classes of the next replacements: each refill
	// deals every class its exact share, shuffled, so the mean prefixes per
	// UPDATE — which events/s and allocations per event hang on — is the
	// same for every seed and only the order differs.
	deck  []int8
	ops   []churnOp
	held  []churnOp // singles withdrawn by noise, oldest first
	due   []int     // len(ops) at which held[i] is re-announced
	saved map[churnOp]route
}

// newChurner prepares churn over the given slots of the given peers;
// noisy marks the peers that also carry withdrawal noise.
func (g *generator) newChurner(shape churnShape, peers []int, slots func(peer int) []int, noisy func(peer int) bool) *churner {
	c := &churner{g: g, shape: shape, peers: peers, noisy: noisy, single: -1,
		blocks: make(map[int][][]block, len(peers)), saved: make(map[churnOp]route)}
	for _, pi := range peers {
		p := &g.w.peers[pi]
		per := make([][]block, len(shape.sizes))
		for _, slot := range slots(pi) {
			for o := 0; o < p.groups[slot].origins; o++ {
				off := p.offs[slot] + o*originPrefixes
				for k, size := range shape.sizes {
					for n := 0; n < shape.counts[k]; n++ {
						per[k] = append(per[k], block{first: int32(off), n: int32(size)})
						off += size
					}
				}
			}
		}
		c.blocks[pi] = per
	}
	for k, size := range shape.sizes {
		if size == 1 {
			c.single = k
		}
	}
	return c
}

func (c *churner) isHeld(peer int, b int) bool {
	for _, q := range c.held {
		if int(q.peer) == peer && int(q.block) == b {
			return true
		}
	}
	return false
}

// step draws the next operation, records it and emits its message.
func (c *churner) step() {
	rng := c.g.rng
	for {
		if len(c.held) > 0 && len(c.ops) >= c.due[0] {
			op := c.held[0]
			c.held, c.due = c.held[1:], c.due[1:]
			op.size = -2
			c.do(op)
			return
		}
		pi := c.peers[rng.Intn(len(c.peers))]
		if c.single >= 0 && c.noisy(pi) && !c.g.bursting[pi] && rng.Float64() < c.shape.noise {
			if b := rng.Intn(len(c.blocks[pi][c.single])); !c.isHeld(pi, b) {
				op := churnOp{peer: int16(pi), size: -1, block: int32(b)}
				c.held = append(c.held, op)
				c.due = append(c.due, len(c.ops)+1+noiseLag)
				c.do(op)
				return
			}
		}
		if len(c.deck) == 0 {
			for k, w := range c.shape.weights {
				for n := int(w*deckSize + 0.5); n > 0; n-- {
					c.deck = append(c.deck, int8(k))
				}
			}
			rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
		}
		k := int(c.deck[len(c.deck)-1])
		b := rng.Intn(len(c.blocks[pi][k]))
		if k == c.single && c.isHeld(pi, b) {
			continue
		}
		c.deck = c.deck[:len(c.deck)-1]
		c.do(churnOp{peer: int16(pi), size: int8(k), block: int32(b)})
		if c.shape.paired {
			c.do(churnOp{peer: int16(pi), size: int8(k), block: int32(b)})
		}
		return
	}
}

// drain re-announces whatever noise still holds withdrawn.
func (c *churner) drain() {
	for _, op := range c.held {
		op.size = -2
		c.do(op)
	}
	c.held, c.due = nil, nil
}

func (c *churner) do(op churnOp) {
	c.ops = append(c.ops, op)
	c.emit(op)
}

// emit renders op against the current route state: a replacement flips
// the block's variant, a noise withdrawal remembers the route it took
// away and the matching re-announcement puts it back.
func (c *churner) emit(op churnOp) {
	k := int(op.size)
	if k < 0 {
		k = c.single
	}
	b := c.blocks[int(op.peer)][k][op.block]
	key := churnOp{peer: op.peer, block: op.block}
	m := msg{peer: op.peer, kind: kindChurn, first: b.first, n: b.n, burst: -1}
	switch op.size {
	case -1:
		c.saved[key] = c.g.state[op.peer][b.first]
	case -2:
		m.state = c.saved[key]
	default:
		m.state = c.g.state[op.peer][b.first] ^ routeVariant
	}
	c.g.emit(m, churnGap)
}

// burstPart is one failed group inside a burst and how many of its
// prefixes each one-second tick withdraws.
type burstPart struct {
	slot  int
	frame int
}

// burstScript emits one link failure on one peer step by step, so plan
// builders can weave other traffic — or other peers' bursts — through
// it: tick withdraws the next frame of every part one virtual second
// after the previous one, announce re-announces the next origin — on
// the same path when the failure is transient, re-homed to the other
// transit when permanent — and closeBurst, after a quiet gap, ends it.
type burstScript struct {
	g     *generator
	id    int
	parts []burstPart
	done  []int   // prefixes withdrawn per part
	next  []route // state each part's re-announcements carry
	part  int     // announce cursor
	o     int
}

// failedLink is the link whose failure withdraws the group in slot of
// peer's table, given the transit the group is currently homed on.
func (g *generator) failedLink(peer, slot int) topology.Link {
	p := &g.w.peers[peer]
	gr, parent := p.groups[slot].g, 0
	if g.state[peer][p.offs[slot]]&routeParent != 0 {
		parent = 1
	}
	return topology.MakeLink(transitAS(gr/2, parent), midAS(gr))
}

// beginBurst registers a burst on peer; parts[0] is the failed link the
// checks expect the inference to name.
func (g *generator) beginBurst(peer int, parts []burstPart, permanent, open bool, joint int) *burstScript {
	p := &g.w.peers[peer]
	next := make([]route, len(parts))
	for k, part := range parts {
		next[k] = g.state[peer][p.offs[part.slot]]
	}
	g.p.bursts = append(g.p.bursts, burstInfo{
		peer: peer, slot: parts[0].slot, permanent: permanent, open: open, joint: joint, closeMsg: -1,
		link: g.failedLink(peer, parts[0].slot),
	})
	if permanent {
		next[0] ^= routeParent // only the failed link's group is re-homed
	}
	g.clock[peer] += burstGap - sec
	g.bursting[peer] = true
	return &burstScript{g: g, id: len(g.p.bursts) - 1, parts: parts, done: make([]int, len(parts)), next: next}
}

// tick withdraws the next frame of every part; it reports false once
// every part is fully withdrawn.
func (b *burstScript) tick() bool {
	bi := &b.g.p.bursts[b.id]
	p := &b.g.w.peers[bi.peer]
	step, more := sec, false
	for k, part := range b.parts {
		size := p.groups[part.slot].origins * originPrefixes
		n := part.frame
		if b.done[k]+n > size {
			n = size - b.done[k]
		}
		if n == 0 {
			continue
		}
		i := b.g.emit(msg{peer: int16(bi.peer), kind: kindBurstWithdraw, first: int32(p.offs[part.slot] + b.done[k]), n: int32(n), burst: int32(b.id)}, step)
		if len(bi.wd) == 0 {
			bi.firstAt = b.g.clock[bi.peer]
		}
		bi.wd = append(bi.wd, i)
		bi.lastAt = b.g.clock[bi.peer]
		step = msec // later parts of a tick get a timestamp of their own where the transport can tell
		b.done[k] += n
		more = more || b.done[k] < size
	}
	return more
}

// announce re-announces the next origin; it reports false after the last.
func (b *burstScript) announce() bool {
	bi := &b.g.p.bursts[b.id]
	p := &b.g.w.peers[bi.peer]
	part := b.parts[b.part]
	b.g.emit(msg{peer: int16(bi.peer), kind: kindBurstAnnounce, first: int32(p.offs[part.slot] + b.o*originPrefixes), n: originPrefixes, burst: int32(b.id), state: b.next[b.part]}, announceGap)
	if b.o++; b.o == p.groups[part.slot].origins {
		b.o, b.part = 0, b.part+1
	}
	return b.part < len(b.parts)
}

// closeBurst appends the message that ends burst id: the first event on
// the peer's stream after more than a detector window of silence.
func (g *generator) closeBurst(id int) {
	bi := &g.p.bursts[id]
	p := &g.w.peers[bi.peer]
	first := int32(p.offs[bi.slot])
	bi.closeMsg = g.emit(msg{peer: int16(bi.peer), kind: kindBurstClose, first: first, n: 1, burst: int32(id), state: g.state[bi.peer][first]}, burstGap)
	bi.closeAt = g.clock[bi.peer]
	g.bursting[bi.peer] = false
}

// align moves every listed peer's clock to the latest among them, so
// bursts that fusion must see as concurrent share one virtual timeline.
func (g *generator) align(peers []int) {
	var max int64
	for _, p := range peers {
		if g.clock[p] > max {
			max = g.clock[p]
		}
	}
	for _, p := range peers {
		g.clock[p] = max
	}
}
