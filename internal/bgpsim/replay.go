package bgpsim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"swift/internal/netaddr"
	"swift/internal/topology"
)

// Network bundles a topology with its routing policy and the prefixes
// each AS originates. It is the simulator's top-level object.
type Network struct {
	Graph   *topology.Graph
	Policy  *Policy
	Origins map[uint32]int // origin AS -> number of originated prefixes
}

// Prefixes returns the deterministic prefix set an origin announces.
func (n *Network) Prefixes(origin uint32) []netaddr.Prefix {
	count := n.Origins[origin]
	out := make([]netaddr.Prefix, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, netaddr.PrefixFor(origin, i))
	}
	return out
}

// TotalPrefixes returns the size of the full table.
func (n *Network) TotalPrefixes() int {
	t := 0
	for _, c := range n.Origins {
		t += c
	}
	return t
}

// Solve computes the per-origin routing for every originating AS.
func (n *Network) Solve(g *topology.Graph) map[uint32]*OriginSolution {
	out := make(map[uint32]*OriginSolution, len(n.Origins))
	for origin := range n.Origins {
		out[origin] = SolveOrigin(g, n.Policy, origin)
	}
	return out
}

// SessionRoute is one entry of a vantage session's Adj-RIB-In.
type SessionRoute struct {
	Origin uint32
	Path   []uint32 // as announced by the neighbor: neighbor first, origin last
}

// SessionRIB returns what neighbor exports to vantage under sols: the
// session's initial Adj-RIB-In, keyed by origin (all prefixes of an
// origin share the path).
func (n *Network) SessionRIB(sols map[uint32]*OriginSolution, vantage, neighbor uint32) map[uint32][]uint32 {
	out := make(map[uint32][]uint32)
	for origin, sol := range sols {
		if origin == vantage {
			continue
		}
		if origin == neighbor {
			out[origin] = []uint32{neighbor}
			continue
		}
		if r, ok := sol.ExportTo(n.Graph, n.Policy, neighbor, vantage); ok {
			out[origin] = r.Path
		}
	}
	return out
}

// MsgKind distinguishes the two UPDATE flavours in a replayed stream.
type MsgKind uint8

// Message kinds.
const (
	KindAnnounce MsgKind = iota
	KindWithdraw
)

// Event is one per-prefix BGP message observed at the vantage session,
// At seconds-scale offsets after the failure instant.
type Event struct {
	At     time.Duration
	Kind   MsgKind
	Prefix netaddr.Prefix
	Origin uint32
	Path   []uint32 // new path for announcements (neighbor first); nil for withdrawals
}

// Burst is a replayed failure: the message stream recorded at a vantage
// session plus ground truth about the failure.
type Burst struct {
	Vantage  uint32
	Neighbor uint32
	// FailedLinks is the ground truth (one entry for a link failure,
	// several sharing an endpoint for a node failure).
	FailedLinks []topology.Link
	// Events are sorted by arrival time.
	Events []Event
	// WithdrawnOrigins lists origins fully withdrawn on the session.
	WithdrawnOrigins []uint32
	// Size is the number of withdrawal events.
	Size int
}

// Duration returns the arrival time of the last event.
func (b *Burst) Duration() time.Duration {
	if len(b.Events) == 0 {
		return 0
	}
	return b.Events[len(b.Events)-1].At
}

// PerPrefixUpdate is the modeled FIB write cost per prefix of a vanilla
// router. 375 µs/prefix is Table 1's measured slope (109 s / 290k
// withdrawals on the paper's Cisco Nexus 7018), slightly above the
// 128–282 µs software-router range of [24, 64].
const PerPrefixUpdate = 375 * time.Microsecond

// FIBWrites is the vanilla router's schedule for the burst: it handles
// the stream message by message, and each message waits for the
// previous FIB write, then costs perUpdate. done[i] is when b.Events[i]
// becomes visible in the FIB.
func (b *Burst) FIBWrites(perUpdate time.Duration) (done []time.Duration) {
	done = make([]time.Duration, len(b.Events))
	var clock time.Duration
	for i, ev := range b.Events {
		clock = max(clock, ev.At) + perUpdate
		done[i] = clock
	}
	return done
}

// Timing models how a remote outage's message stream drains into the
// vantage session. Per-message spacing dominates (BGP messages arrive
// one at a time over TCP); hop distance adds onset latency; a heavy
// tail reproduces the paper's observation that 25% of bursts carry at
// least 32% of their withdrawals in the final third (§2.2.1).
type Timing struct {
	// PerMsg is the mean spacing between consecutive messages.
	PerMsg time.Duration
	// HopDelay is the per-AS-hop propagation delay from the failure.
	HopDelay time.Duration
	// TailProb is the probability a message is deferred into the tail.
	TailProb float64
	// TailBurstProb, when positive, is the probability that a burst has
	// a tail at all: the paper's data shows most bursts drain compactly
	// (63% finish within 10 s) while a minority dribble for minutes.
	// Zero disables the gate (every burst tails).
	TailBurstProb float64
	// TailScale is the mean extra delay of tail messages.
	TailScale time.Duration
	// Seed makes the replay deterministic.
	Seed int64
}

// DefaultTiming is calibrated so a 10k burst spans roughly 4–6 s and a
// 100k burst 40–60 s, matching the linear growth in Table 1 and the
// Fig. 2b duration CDF.
func DefaultTiming(seed int64) Timing {
	return Timing{
		PerMsg:        400 * time.Microsecond,
		HopDelay:      50 * time.Millisecond,
		TailProb:      0.08,
		TailBurstProb: 0.35,
		TailScale:     6 * time.Second,
		Seed:          seed,
	}
}

// TestbedTiming models the controlled lab setup of §2.1.2 and §7: the
// upstream router drains the burst back-to-back over a direct session
// with RFC 4271 update packing (hundreds of withdrawals per message),
// so CONTROL-plane arrival is fast — about 50 µs per withdrawn prefix.
// The router's DATA-plane convergence is then FIB-write bound (see
// PerPrefixUpdate), which is how the paper's Cisco needs 109 s
// for 290k prefixes while the SWIFT controller has seen its 20k trigger
// withdrawals after one second.
func TestbedTiming(seed int64) Timing {
	return Timing{
		PerMsg:   50 * time.Microsecond,
		HopDelay: time.Millisecond,
		Seed:     seed,
	}
}

// ReplayLinkFailure computes the burst that the failure of link produces
// on the vantage←neighbor session.
func (n *Network) ReplayLinkFailure(vantage, neighbor uint32, link topology.Link, tm Timing) (*Burst, error) {
	if !n.Graph.HasLink(link.A, link.B) {
		return nil, fmt.Errorf("bgpsim: link %v not in topology", link)
	}
	after := n.Graph.WithoutLink(link.A, link.B)
	return n.replay(vantage, neighbor, after, []topology.Link{link}, tm)
}

// ReplayASFailure computes the burst produced by a whole-AS outage,
// which takes down every adjacent link at once (§4.2's concurrent
// failure case).
func (n *Network) ReplayASFailure(vantage, neighbor, dead uint32, tm Timing) (*Burst, error) {
	var links []topology.Link
	for _, nb := range n.Graph.Neighbors(dead) {
		links = append(links, topology.MakeLink(dead, nb.AS))
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("bgpsim: AS %d has no links", dead)
	}
	after := n.Graph.WithoutAS(dead)
	return n.replay(vantage, neighbor, after, links, tm)
}

func (n *Network) replay(vantage, neighbor uint32, after *topology.Graph, failed []topology.Link, tm Timing) (*Burst, error) {
	solsBefore := n.Solve(n.Graph)
	solsAfter := n.Solve(after)

	b := &Burst{Vantage: vantage, Neighbor: neighbor, FailedLinks: failed}

	// Per-origin change detection on the session.
	type change struct {
		origin   uint32
		withdraw bool
		newPath  []uint32
		dist     int // hops from the failure to the neighbor on the old path
	}
	var changes []change
	origins := make([]uint32, 0, len(n.Origins))
	for o := range n.Origins {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })

	for _, origin := range origins {
		if origin == vantage || origin == neighbor {
			continue
		}
		oldR, oldOK := solsBefore[origin].ExportTo(n.Graph, n.Policy, neighbor, vantage)
		newR, newOK := solsAfter[origin].ExportTo(after, n.Policy, neighbor, vantage)
		switch {
		case oldOK && !newOK:
			changes = append(changes, change{
				origin:   origin,
				withdraw: true,
				dist:     failureDistance(oldR.Path, failed),
			})
			b.WithdrawnOrigins = append(b.WithdrawnOrigins, origin)
		case oldOK && newOK && !samePath(oldR.Path, newR.Path):
			changes = append(changes, change{
				origin:  origin,
				newPath: newR.Path,
				dist:    failureDistance(oldR.Path, failed),
			})
		case !oldOK && newOK:
			changes = append(changes, change{origin: origin, newPath: newR.Path, dist: 1})
		}
	}

	sc := make([]SessionChange, len(changes))
	for i, c := range changes {
		sc[i] = SessionChange{Origin: c.origin, Withdraw: c.withdraw, NewPath: c.newPath, Dist: c.dist}
	}
	b.Events, b.Size = expandEvents(n, sc, tm)
	return b, nil
}

// expandEvents turns per-origin session changes into the per-prefix,
// timestamped message stream: per-origin onset delays proportional to
// the failure distance, a heavy tail, then strict serialization with
// exponential inter-message spacing.
func expandEvents(n *Network, changes []SessionChange, tm Timing) ([]Event, int) {
	rng := rand.New(rand.NewSource(tm.Seed))
	tailProb := tm.TailProb
	// The gating draw must stay the first use of the rng so that
	// EstimateDuration can reproduce it.
	if tm.TailBurstProb > 0 && rng.Float64() > tm.TailBurstProb {
		tailProb = 0
	}
	type pending struct {
		ev   Event
		base time.Duration
	}
	var msgs []pending
	for _, c := range changes {
		count := n.Origins[c.Origin]
		base := time.Duration(c.Dist) * tm.HopDelay
		for i := 0; i < count; i++ {
			ev := Event{Prefix: netaddr.PrefixFor(c.Origin, i), Origin: c.Origin}
			if c.Withdraw {
				ev.Kind = KindWithdraw
			} else {
				ev.Kind = KindAnnounce
				ev.Path = c.NewPath
			}
			jitter := time.Duration(rng.Int63n(int64(tm.HopDelay) + 1))
			delay := base + jitter
			if tailProb > 0 && rng.Float64() < tailProb {
				delay += time.Duration(rng.ExpFloat64() * float64(tm.TailScale))
			}
			msgs = append(msgs, pending{ev: ev, base: delay})
		}
	}
	sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].base < msgs[j].base })

	// Serialize: one message at a time, exponential spacing.
	var clock time.Duration
	events := make([]Event, 0, len(msgs))
	size := 0
	for _, m := range msgs {
		gap := time.Duration(rng.ExpFloat64() * float64(tm.PerMsg))
		if m.base > clock {
			clock = m.base
		}
		clock += gap
		m.ev.At = clock
		events = append(events, m.ev)
		if m.ev.Kind == KindWithdraw {
			size++
		}
	}
	return events, size
}

// InjectNoise adds n withdrawal events for prefixes of origins that are
// not affected by the burst, uniformly spread over the burst duration —
// the §6.2.2 noise-robustness setup. It returns the modified burst.
func (b *Burst) InjectNoise(net *Network, n int, seed int64) *Burst {
	rng := rand.New(rand.NewSource(seed))
	affected := make(map[uint32]bool, len(b.WithdrawnOrigins))
	for _, o := range b.WithdrawnOrigins {
		affected[o] = true
	}
	var pool []uint32
	for o := range net.Origins {
		if !affected[o] && o != b.Vantage && o != b.Neighbor {
			pool = append(pool, o)
		}
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	if len(pool) == 0 {
		return b
	}
	dur := b.Duration()
	if dur == 0 {
		dur = time.Second
	}
	for i := 0; i < n; i++ {
		o := pool[rng.Intn(len(pool))]
		idx := rng.Intn(net.Origins[o])
		b.Events = append(b.Events, Event{
			At:     time.Duration(rng.Int63n(int64(dur))),
			Kind:   KindWithdraw,
			Prefix: netaddr.PrefixFor(o, idx),
			Origin: o,
		})
		b.Size++
	}
	sort.SliceStable(b.Events, func(i, j int) bool { return b.Events[i].At < b.Events[j].At })
	return b
}

// failureDistance returns the hop index (1-based from the neighbor) of
// the first failed link on path, approximating how far the failure news
// travels before reaching the session.
func failureDistance(path []uint32, failed []topology.Link) int {
	for i := 0; i+1 < len(path); i++ {
		l := topology.MakeLink(path[i], path[i+1])
		for _, f := range failed {
			if l == f {
				return i + 1
			}
		}
	}
	return len(path)
}

func samePath(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Fig1Network builds the complete running example of the paper: the
// Fig. 1 topology, the partial-transit policy, AS 1's explicit neighbor
// preference (2, then 4, then 3), and Fig. 4's prefix counts scaled so
// AS 7/8 originate scale prefixes each.
func Fig1Network(scale int) *Network {
	origins := topology.Fig1Origins(scale)
	return &Network{
		Graph: topology.Fig1(),
		Policy: &Policy{
			// AS 3 sells AS 5 partial transit covering only AS 7's
			// prefixes (§2.1: AS 5 has a backup for S7 but not S6/S8).
			Export: func(exporter, importer, origin uint32) bool {
				if exporter == 3 && importer == 5 {
					return origin == 7
				}
				if exporter == 5 && importer == 3 {
					// 3 only announces S7 to 5; symmetrically 5 does not
					// give 3 transit (3 reaches everything via 6 anyway).
					return false
				}
				return true
			},
			// The paper pins AS 1's primary to the 2→5→6 chain.
			Prefer: map[uint32][]uint32{1: {2, 4, 3}},
		},
		Origins: origins,
	}
}
