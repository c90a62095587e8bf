package main

import "time"

// phase is one stream a workload sends while the clock runs.
type phase struct {
	name string
	plan *plan
	// rate is the open-loop offered rate in events/s; 0 makes the phase a
	// closed loop that writes as fast as TCP accepts.
	rate float64
	// share is the part of -seconds a cyclic closed loop keeps replaying
	// its plan for; plans that are not cyclic are sent once.
	share float64
	// ingest marks the phase ingest_events_per_s and allocs_per_kevent
	// are measured over.
	ingest bool
	// quiet asserts that no burst opens and no decision is made.
	quiet bool
}

// spec is one workload: the fleet's shape, how its inputs reach the
// program, and how the measured time is split.
type spec struct {
	name string
	why  string
	// shapes gives each peer's table as slices of the shared world.
	shapes func() [][]groupRef
	// fused turns FleetConfig.Fusion on.
	fused bool
	// archive feeds the program through mrt.Source from in-memory MRT
	// instead of BMP over loopback TCP.
	archive bool
	// replay adds the most expensive check: every peer's final FIB must
	// equal that of one bare engine fed the same events directly.
	replay bool
	// build generates the stream phases for a run of the given length.
	build func(g *generator, seconds float64) []phase
	// restart ends every lap with roundsPerLap checkpoint/restore rounds,
	// each followed by forwarding over the fleet it restored.
	restart bool
}

// roundsPerLap is how many checkpoint/restore rounds a lap of a restart
// workload makes; forwardShare is the part of the lap's seconds spent
// forwarding packets over the fleets they restore.
const (
	roundsPerLap = 2
	forwardShare = 0.25
)

// stormRate is the offered rate of the open loop, in events/s. It is
// part of the benchmark's definition: fixed once, far below half of what
// the same stream sustains closed-loop on the reference box (2 CPUs),
// and never adjusted to the code under test. Every traced run measures
// that capacity again (bench.closed_capacity_events_per_s).
const (
	stormRate = 150_000
	// tick is the open-loop scheduling grain: all messages due within one
	// tick go out in one write.
	tick = time.Millisecond
)

// eventsPerBurst is what one failure of a full group puts on the wire:
// its withdrawals and their re-announcements.
const eventsPerBurst = 2 * groupPrefixes

var workloads = []*spec{
	{
		name:   "steady-churn",
		why:    "closed loop: 1/4/32-prefix route replacements and sub-threshold withdrawal noise on 8 x 20k-prefix peers; decode, batching, ring hop and RIB update do the work, no burst ever opens",
		shapes: func() [][]groupRef { return uniform(8, 5) },
		build: func(g *generator, seconds float64) []phase {
			all := allPeers(g.w)
			c := g.newChurner(churnShape{
				sizes: []int{32, 4, 1}, counts: []int{1, 4, 16}, weights: []float64{0.1, 0.3, 0.6}, noise: 0.05,
			}, all, allSlots(g.w), func(int) bool { return true })
			n := scale(40_000, seconds)
			for i := 0; i < n; i++ {
				c.step()
			}
			c.drain()
			for _, op := range c.ops {
				c.emit(op)
			}
			return []phase{{name: "churn", plan: g.finish(true), share: 0.8, ingest: true, quiet: true}}
		},
	},
	{
		name:   "burst-storm",
		why:    "open loop at a fixed rate: 4,096-prefix link failures cycle over 8 x 20k-prefix peers, transient and permanent; inference, rule encoding and stage-2 writes sit on the path the latencies time",
		shapes: func() [][]groupRef { return uniform(8, 5) },
		build: func(g *generator, seconds float64) []phase {
			all := allPeers(g.w)
			// Light churn on the peers that are not bursting, in the one
			// group that never fails.
			c := g.newChurner(churnShape{
				sizes: []int{4, 1}, counts: []int{8, 32}, weights: []float64{0.5, 0.5}, noise: 0.05, paired: true,
			}, all, func(int) []int { return []int{4} }, func(int) bool { return true })
			g.storm(burstCount(0.9*seconds, stormRate), all, c)
			return []phase{{name: "storm", plan: g.finish(false), rate: stormRate, ingest: true}}
		},
		replay: true,
	},
	{
		name: "fanout-100",
		why:  "closed loop over 100 peers (10 x 9.7k, 90 x 512 prefixes) with fusion on: 1-8-prefix UPDATEs interleaved across peers, and 5 large peers at a time bursting together on one shared failed link",
		shapes: func() [][]groupRef {
			shapes := make([][]groupRef, 100)
			for i := range shapes {
				if i < fanoutLarge {
					shapes[i] = []groupRef{{g: 0, origins: groupOrigins}, {g: 1, origins: groupOrigins}, {g: 3, origins: 24}}
				} else {
					shapes[i] = []groupRef{{g: 2, origins: 8}}
				}
			}
			return shapes
		},
		fused: true,
		build: func(g *generator, seconds float64) []phase {
			c := g.newChurner(churnShape{
				sizes: []int{8, 4, 2, 1}, counts: []int{4, 4, 4, 8}, weights: []float64{0.1, 0.2, 0.3, 0.4}, noise: 0.05,
			}, allPeers(g.w), func(peer int) []int {
				if peer < fanoutLarge {
					return []int{1} // groups 0 and 3 fail; churn stays off them
				}
				return []int{0}
			}, func(peer int) bool { return peer >= fanoutLarge })
			// One half of the cycle: n churn messages with two joint failures
			// woven in, each closed an eighth of the half later. The second
			// half draws nothing new: it replays the first half's churn, which
			// flips every block back, around the same two failures.
			n := scale(60_000, seconds)
			joint := 0
			half := func(next func()) {
				var open [][]int
				for i := 0; i < n; i++ {
					switch i {
					case n / 4:
						open = append(open, g.jointFailure(joint, []int{0, 1, 2, 3, 4}, next))
						joint++
					case 3 * n / 4:
						open = append(open, g.jointFailure(joint, []int{5, 6, 7, 8, 9}, next))
						joint++
					case n/4 + n/8, 3*n/4 + n/8:
						for _, id := range open[0] {
							g.closeBurst(id)
						}
						open = open[1:]
					}
					next()
				}
			}
			half(c.step)
			c.drain()
			ops, k := c.ops, 0
			half(func() { c.emit(ops[k]); k++ })
			for ; k < len(ops); k++ {
				c.emit(ops[k])
			}
			return []phase{{name: "fanout", plan: g.finish(true), share: 0.8, ingest: true}}
		},
	},
	{
		name:    "restart-forward",
		why:     "4 x 61k-route peers cold-started via mrt.Source from TABLE_DUMP_V2 and a BGP4MP burst archive, then checkpointed, restored and read: bulk writes beside reads, plus mrt and snapshot",
		shapes:  func() [][]groupRef { return uniform(4, 15) },
		archive: true,
		build: func(g *generator, seconds float64) []phase {
			// Each peer's archive holds its own failures; peers 0 and 1 end
			// inside one, so half the restored fleet forwards on reroute rules.
			per := scale(12, seconds)
			for i := range g.w.peers {
				for k := 0; k < per; k++ {
					last := k == per-1 && i < len(g.w.peers)/2
					b := g.beginBurst(i, []burstPart{{slot: k % 14, frame: burstFrame}}, k%2 == 1 && !last, last, -1)
					for b.tick() {
					}
					if last {
						continue
					}
					for b.announce() {
					}
					g.closeBurst(b.id)
				}
			}
			return []phase{{name: "archive", plan: g.finish(false), ingest: true}}
		},
		restart: true,
	},
}

// fanoutLarge is how many of fanout-100's peers carry the large tables.
const fanoutLarge = 10

func specByName(name string) *spec {
	for _, sp := range workloads {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// scale sizes a generated input in proportion to the run length, so the
// scaled-down smoke test exercises the same code with less of it. n is
// the size at the reference 10 s.
func scale(n int, seconds float64) int {
	if n = int(float64(n) * seconds / 10); n < 2 {
		n = 2
	}
	return n
}

// burstCount is how many failures an open loop at rate fits in d seconds.
func burstCount(d, rate float64) int {
	n := int(d * rate / (eventsPerBurst * 1.03)) // 3 % headroom for woven churn and closes
	if n < 2 {
		n = 2
	}
	return n
}

func allPeers(w *world) []int {
	out := make([]int, len(w.peers))
	for i := range out {
		out[i] = i
	}
	return out
}

func allSlots(w *world) func(int) []int {
	return func(peer int) []int {
		out := make([]int, len(w.peers[peer].groups))
		for i := range out {
			out[i] = i
		}
		return out
	}
}

// storm appends n link failures, one after another, round-robin over
// peers and over each peer's four failable groups. Two of every three
// of a peer's failures are permanent, so the median fallback is a full
// re-provision rather than a coin toss between it and the signature
// skip. A burst is closed two failures later, so its fallback
// re-provision lands on a shard while another peer is mid-burst. weave
// adds one churn message after every fourth burst message.
func (g *generator) storm(n int, peers []int, weave *churner) {
	msgs := 0
	step := func() {
		if msgs++; msgs%4 == 0 {
			weave.step()
		}
	}
	var open []int
	for k := 0; k < n; k++ {
		if len(open) == 2 {
			g.closeBurst(open[0])
			open = open[1:]
		}
		peer := peers[k%len(peers)]
		slot := (k / len(peers)) % 4
		b := g.beginBurst(peer, []burstPart{{slot: slot, frame: burstFrame}}, (k/len(peers)+k%len(peers))%3 != 0, false, -1)
		for b.tick() {
			step()
		}
		for b.announce() {
			step()
		}
		open = append(open, b.id)
	}
	for _, id := range open {
		g.closeBurst(id)
	}
	weave.drain()
}

// jointFailure appends one failure of the shared link (A(0), B(0)) seen
// by five large peers at once, on one aligned virtual timeline so fusion
// sees the bursts as concurrent. The first three burst in step and
// confirm the verdict; the fourth lags three seconds, so the verdict
// pre-triggers it; the fifth sees the failure mixed with an unrelated
// one on (A(1), B(3)), names that weaker, disjoint link first and is
// vetoed. weave adds other traffic after every burst message. The
// bursts are left for the caller to close.
func (g *generator) jointFailure(id int, peers []int, weave func()) []int {
	g.align(peers)
	lag := []int{0, 0, 0, 3, 1}
	scripts := make([]*burstScript, len(peers))
	ids := make([]int, len(peers))
	for k, p := range peers {
		parts := []burstPart{{slot: 0, frame: burstFrame}}
		if k == len(peers)-1 {
			parts = []burstPart{{slot: 0, frame: burstFrame / 2}, {slot: 2, frame: burstFrame / 2}}
		}
		scripts[k] = g.beginBurst(p, parts, false, false, id)
		ids[k] = scripts[k].id
		if len(parts) > 1 {
			g.p.bursts[ids[k]].vetoed, g.p.bursts[ids[k]].decoy = true, g.failedLink(p, parts[1].slot)
		}
	}
	ticking := make([]bool, len(peers))
	for k := range ticking {
		ticking[k] = true
	}
	for t, live := 0, len(peers); live > 0; t++ {
		for k, b := range scripts {
			switch {
			case !ticking[k]:
				continue
			case t < lag[k]:
				g.clock[peers[k]] += sec
			case !b.tick():
				ticking[k] = false
				live--
			}
			weave()
		}
	}
	for live := len(peers); live > 0; {
		for k, b := range scripts {
			if b == nil {
				continue
			}
			if !b.announce() {
				scripts[k] = nil
				live--
			}
			weave()
		}
	}
	return ids
}
