package swift

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"swift/internal/bgpsim"
	"swift/internal/fusion"
	"swift/internal/netaddr"
	"swift/internal/topology"
)

// referenceCorroborated is ApplyExternal's prediction as a hash-set
// filter: the verdict's Predicted, in order, restricted to the local
// withdrawn-on set. The merge must reproduce it exactly.
func referenceCorroborated(predicted, local []netaddr.Prefix) []netaddr.Prefix {
	cover := make(map[netaddr.Prefix]struct{}, len(local))
	for _, p := range local {
		cover[p] = struct{}{}
	}
	var out []netaddr.Prefix
	for _, p := range predicted {
		if _, ok := cover[p]; ok {
			out = append(out, p)
		}
	}
	return out
}

// TestCorroboratedMatchesReference runs the two-pointer merge against
// the hash-set reference over hand-picked edge cases (empty and
// disjoint sets, duplicate local entries, local entries past the end of
// the verdict) and random sorted sets with heavy overlap.
func TestCorroboratedMatchesReference(t *testing.T) {
	pf := func(is ...int) []netaddr.Prefix {
		out := make([]netaddr.Prefix, len(is))
		for k, i := range is {
			out[k] = netaddr.PrefixFor(8, i)
		}
		return out
	}
	cases := []struct{ predicted, local []netaddr.Prefix }{
		{nil, nil},
		{pf(1, 2, 3), nil},
		{nil, pf(1, 2, 3)},
		{pf(1, 3, 5), pf(2, 4, 6)},
		{pf(1, 2, 3), pf(4, 5, 6)},
		{pf(4, 5, 6), pf(1, 2, 3)},
		{pf(1, 2, 3, 4), pf(2, 2, 3, 3, 3, 9)},
		{pf(1, 2, 2, 3), pf(2, 3)},
		{pf(5), pf(1, 2, 3, 4, 5, 5)},
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 500; n++ {
		draw := func(size, span int) []netaddr.Prefix {
			out := make([]netaddr.Prefix, rng.Intn(size+1))
			for k := range out {
				out[k] = netaddr.PrefixFor(uint32(8+rng.Intn(2)), rng.Intn(span))
			}
			slices.Sort(out)
			return out
		}
		predicted := slices.Compact(draw(40, 60))
		cases = append(cases, struct{ predicted, local []netaddr.Prefix }{predicted, draw(40, 60)})
	}
	for n, c := range cases {
		want := referenceCorroborated(c.predicted, c.local)
		got := appendCorroborated(nil, c.predicted, c.local)
		if !slices.Equal(got, want) {
			t.Fatalf("case %d: predicted %v, local %v: merge %v, reference %v", n, c.predicted, c.local, got, want)
		}
	}
}

// TestApplyExternalKeepsExactCorroboratedSet drives ApplyExternal on a
// provisioned engine whose burst withdrew prefixes across (5,6), some
// of them twice with a re-announcement in between, and checks every
// external decision against the hash-set reference — contents, order,
// and a capacity equal to the length, so a receiver that keeps the set
// holds what it reports and nothing more.
func TestApplyExternalKeepsExactCorroboratedSet(t *testing.T) {
	e, _ := fig1Engine(t, 200, false)
	ds := recordDecisions(e)
	link := topology.MakeLink(5, 6)
	for i := 0; i < 40; i++ {
		e.tracker.ObserveWithdraw(netaddr.PrefixFor(8, i))
		e.tracker.ObserveWithdraw(netaddr.PrefixFor(4, i))
	}
	for i := 0; i < 5; i++ { // path exploration: withdrawn, back, withdrawn
		p := netaddr.PrefixFor(8, i)
		e.tracker.ObserveAnnounce(p, []uint32{2, 5, 6, 8})
		e.tracker.ObserveWithdraw(p)
	}
	local := e.tracker.AppendWithdrawnOn(nil, []topology.Link{link})
	if len(local) == 0 {
		t.Fatal("no withdrawn prefix crosses (5,6); the fixture is vacuous")
	}
	seq := func(origin uint32, lo, hi int) []netaddr.Prefix {
		var out []netaddr.Prefix
		for i := lo; i < hi; i++ {
			out = append(out, netaddr.PrefixFor(origin, i))
		}
		return out
	}
	verdicts := [][]netaddr.Prefix{
		nil,
		seq(9, 0, 30),
		seq(8, 0, 60),
		seq(8, 20, 25),
		append(append(seq(4, 0, 60), seq(8, 30, 80)...), seq(9, 0, 10)...),
	}
	for n, predicted := range verdicts {
		slices.Sort(predicted)
		e.ApplyExternal(fusion.Verdict{
			Links:     []topology.Link{link},
			Predicted: predicted,
			FS:        0.9,
			At:        1,
			Epoch:     uint64(n + 1),
		})
		if len(*ds) != n+1 {
			t.Fatalf("verdict %d: %d decisions, want %d", n, len(*ds), n+1)
		}
		d := (*ds)[n]
		want := referenceCorroborated(predicted, local)
		if !d.External || !slices.Equal(d.Predicted, want) {
			t.Errorf("verdict %d: external %v, predicted %v, want %v", n, d.External, d.Predicted, want)
		}
		if cap(d.Predicted) != len(d.Predicted) {
			t.Errorf("verdict %d: predicted set has cap %d for %d prefixes", n, cap(d.Predicted), len(d.Predicted))
		}
	}
}

// TestRerouteDecisionsAreExact: an engine's own decisions keep their
// predicted sets at exact length too.
func TestRerouteDecisionsAreExact(t *testing.T) {
	e, net := fig1Engine(t, 1000, false)
	b, err := net.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.DefaultTiming(5))
	if err != nil {
		t.Fatal(err)
	}
	ds := recordDecisions(e)
	playBurst(t, e, b)
	if len(*ds) == 0 {
		t.Fatal("the burst made no decision")
	}
	for n, d := range *ds {
		if len(d.Predicted) == 0 || cap(d.Predicted) != len(d.Predicted) {
			t.Errorf("decision %d: predicted set has cap %d for %d prefixes", n, cap(d.Predicted), len(d.Predicted))
		}
	}
}

// cyclingEngine returns benchEngine over 4,096 prefixes and a function
// that plays it one benchBurstCycle — one decision — per call.
func cyclingEngine(t *testing.T) (*Engine, func()) {
	prefixes := make([]netaddr.Prefix, 4096)
	for i := range prefixes {
		prefixes[i] = netaddr.PrefixFor(8, i)
	}
	batch := benchBurstCycle(prefixes)
	span := batch[len(batch)-1].At + time.Hour
	e := benchEngine(t, prefixes)
	return e, func() {
		if err := e.Apply(batch); err != nil {
			t.Fatal(err)
		}
		shiftBatch(batch, span)
	}
}

// TestDecisionsDoNotGrowTheHeap: the engine keeps a count of its
// decisions and nothing else, so a long run of burst cycles — one
// decision each, every one predicting thousands of prefixes — leaves
// its live heap where it was.
func TestDecisionsDoNotGrowTheHeap(t *testing.T) {
	e, cycle := cyclingEngine(t)
	run := func(cycles int) uint64 {
		for i := 0; i < cycles; i++ {
			cycle()
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := run(20)
	after := run(200)
	runtime.KeepAlive(e)
	if e.NumDecisions() != 220 {
		t.Fatalf("made %d decisions over 220 cycles, want one per cycle", e.NumDecisions())
	}
	if grew := int64(after) - int64(before); grew >= 1<<20 {
		t.Errorf("live heap grew by %.2f MiB over 200 decisions", float64(grew)/(1<<20))
	}
}

// TestBurstCycleAllocations: with logging off, a burst cycle — detect,
// infer, reroute, reconverge, fall back — allocates only what it hands
// out or keeps, not the boxed arguments of log lines nobody prints.
func TestBurstCycleAllocations(t *testing.T) {
	e, cycle := cyclingEngine(t)
	allocs := testing.AllocsPerRun(20, cycle)
	if e.NumDecisions() != 21 {
		t.Fatalf("made %d decisions over 21 cycles, want one per cycle", e.NumDecisions())
	}
	if allocs > 8 {
		t.Errorf("a burst cycle allocates %.0f times, want at most 8", allocs)
	}
}
