package swift

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"swift/internal/bgpsim"
	"swift/internal/event"
	"swift/internal/inference"
	"swift/internal/netaddr"
	"swift/internal/topology"
)

// TestObserverBurstLifecycle drives the full burst lifecycle — start,
// decisions, end, fallback re-provision against the converged RIB —
// and asserts it through the push-based Observer hooks, which replace
// the log-string inspection this path previously required.
func TestObserverBurstLifecycle(t *testing.T) {
	var (
		starts     []time.Duration
		decisions  []Decision
		ends       []time.Duration
		endCounts  []int
		provisions []ProvisionInfo
	)
	obs := Observer{
		OnBurstStart: func(at time.Duration, withdrawals int) {
			starts = append(starts, at)
			if withdrawals <= 0 {
				t.Errorf("OnBurstStart withdrawals = %d", withdrawals)
			}
		},
		OnDecision: func(d Decision) { decisions = append(decisions, d) },
		OnBurstEnd: func(at time.Duration, received int) {
			ends = append(ends, at)
			endCounts = append(endCounts, received)
		},
		OnProvision: func(info ProvisionInfo) { provisions = append(provisions, info) },
	}

	e, net := fig1Engine(t, 1000, false)
	// fig1Engine provisions before we can hook the config, so rewire
	// the observer directly and re-provision to observe the initial
	// pass too.
	e.cfg.Observer = obs
	if err := e.Provision(); err != nil {
		t.Fatal(err)
	}
	if len(provisions) != 1 || provisions[0].Fallback {
		t.Fatalf("initial provision hook: %+v", provisions)
	}
	if provisions[0].TaggedPrefixes == 0 {
		t.Error("initial provision tagged nothing")
	}
	// Fig. 1's prefixes of one origin share their alternate paths, so
	// the plan stores far fewer backup rows than prefixes.
	if rows := provisions[0].BackupRows; rows <= 0 || rows*100 > provisions[0].TaggedPrefixes {
		t.Errorf("initial provision reports %d backup rows for %d prefixes", rows, provisions[0].TaggedPrefixes)
	}

	b, err := net.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.DefaultTiming(5))
	if err != nil {
		t.Fatal(err)
	}
	playBurst(t, e, b)

	if len(starts) != 1 {
		t.Fatalf("burst starts observed = %d, want 1", len(starts))
	}
	if len(decisions) == 0 {
		t.Fatal("no decisions observed")
	}
	if e.NumDecisions() != len(decisions) {
		t.Errorf("observer saw %d decisions, engine counts %d", len(decisions), e.NumDecisions())
	}
	if len(ends) != 1 {
		t.Fatalf("burst ends observed = %d, want 1", len(ends))
	}
	if ends[0] <= starts[0] {
		t.Errorf("burst end at %v not after start at %v", ends[0], starts[0])
	}
	if endCounts[0] < b.Size {
		t.Errorf("burst end reported %d withdrawals, want >= %d", endCounts[0], b.Size)
	}

	// The fallback path: burst ended -> reroute rules removed -> the
	// engine re-provisioned against the converged RIB.
	if e.RerouteActive() {
		t.Error("reroute still active after burst end")
	}
	if len(provisions) != 2 {
		t.Fatalf("provision passes observed = %d, want 2 (initial + fallback)", len(provisions))
	}
	fb := provisions[1]
	if !fb.Fallback {
		t.Error("second provision pass not marked Fallback")
	}
	if fb.At != ends[0] {
		t.Errorf("fallback provision at %v, want burst end %v", fb.At, ends[0])
	}
	if fb.TaggedPrefixes == 0 {
		t.Error("fallback provision tagged nothing — not re-derived from the converged RIB")
	}
	// S7 converged onto a surviving path, so the re-derived tags must
	// cover it and the FIB must follow BGP again.
	if nh, ok := e.FIB().ForwardPrefix(netaddr.PrefixFor(7, 0)); !ok || nh != 2 {
		t.Errorf("S7 forwards to %d (ok=%v) after fallback, want primary 2", nh, ok)
	}
}

// TestDecisionReceiverOwnsPredicted: the OnDecision receiver owns
// each decision's Predicted. One receiver keeps every set it is handed
// and writes over all of them at each decision; its engine must still
// make the same decisions and program the same FIB as an engine whose
// receiver only reads, and the reader's kept sets must not change
// under later decisions.
func TestDecisionReceiverOwnsPredicted(t *testing.T) {
	scribbled, net := fig1Engine(t, 1000, false)
	clean, _ := fig1Engine(t, 1000, false)
	b, err := net.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.DefaultTiming(5))
	if err != nil {
		t.Fatal(err)
	}
	var kept [][]netaddr.Prefix
	var seen []Decision
	scribbled.cfg.Observer.OnDecision = func(d Decision) {
		c := d
		c.Predicted = slices.Clone(d.Predicted)
		seen = append(seen, c)
		kept = append(kept, d.Predicted)
		for _, ps := range kept {
			for i := range ps {
				ps[i] = netaddr.Invalid
			}
		}
	}
	var want []Decision
	var copies [][]netaddr.Prefix
	clean.cfg.Observer.OnDecision = func(d Decision) {
		want = append(want, d)
		copies = append(copies, slices.Clone(d.Predicted))
	}

	// Stop short of the burst's end so the reroute rules are still
	// installed when the FIBs are compared.
	head := *b
	head.Events = b.Events[:len(b.Events)*95/100]
	for _, e := range []*Engine{scribbled, clean} {
		if err := (&bgpsim.BurstSource{Bursts: []*bgpsim.Burst{&head}, FinalTick: -1}).Run(e); err != nil {
			t.Fatal(err)
		}
	}
	if len(want) < 2 || !clean.RerouteActive() {
		t.Fatalf("%d decisions, reroute active %v: the fixture is vacuous", len(want), clean.RerouteActive())
	}
	if scribbled.NumDecisions() != len(seen) {
		t.Errorf("NumDecisions = %d, OnDecision fired %d times", scribbled.NumDecisions(), len(seen))
	}
	if len(seen) != len(want) {
		t.Fatalf("scribbling receiver saw %d decisions, reader %d", len(seen), len(want))
	}
	for i := range seen {
		if !sameDecision(seen[i], want[i]) {
			g, w := seen[i], want[i]
			t.Errorf("decision %d after a receiver wrote over its sets: at %v, links %v, %d predicted; want at %v, links %v, %d predicted",
				i, g.At, g.Result.Links, len(g.Predicted), w.At, w.Result.Links, len(w.Predicted))
		}
		if !slices.Equal(want[i].Predicted, copies[i]) {
			t.Errorf("decision %d: a kept predicted set changed under later decisions", i)
		}
	}
	for origin, n := range net.Origins {
		for i := 0; i < n; i++ {
			p := netaddr.PrefixFor(origin, i)
			gn, gok := scribbled.FIB().ForwardPrefix(p)
			wn, wok := clean.FIB().ForwardPrefix(p)
			if gn != wn || gok != wok {
				t.Fatalf("%v forwards to %d (%v), want %d (%v)", p, gn, gok, wn, wok)
			}
		}
	}
}

// sameDecision reports whether g and w agree on every field but the
// wall-clock InferLatency. Predicted is compared as two sets split at
// WithdrawnStart: its order follows the RIB's load order, which
// fig1Engine's map walk varies from engine to engine.
func sameDecision(g, w Decision) bool {
	g.InferLatency, w.InferLatency = 0, 0
	g.Predicted, w.Predicted = sortedHalves(g), sortedHalves(w)
	return reflect.DeepEqual(g, w)
}

func sortedHalves(d Decision) []netaddr.Prefix {
	ps := slices.Clone(d.Predicted)
	k := min(d.WithdrawnStart, len(ps))
	slices.Sort(ps[:k])
	slices.Sort(ps[k:])
	return ps
}

// TestConfigPerFieldInferenceDefaults pins the defaulting fix: setting
// one inference knob must not zero the others' paper defaults.
func TestConfigPerFieldInferenceDefaults(t *testing.T) {
	def := inference.Default()

	// One knob set: every other field still gets its default.
	var cfg Config
	cfg.Inference.WWS = 5
	got := cfg.withDefaults().Inference
	if got.WWS != 5 {
		t.Errorf("WWS = %v, want the override 5", got.WWS)
	}
	if got.WPS != def.WPS || got.TriggerEvery != def.TriggerEvery ||
		got.AcceptAlways != def.AcceptAlways || got.TieEpsilon != def.TieEpsilon {
		t.Errorf("satellite defaults lost: %+v", got)
	}
	if got.Plausibility == nil {
		t.Error("Plausibility not defaulted")
	}
	if got.UseHistory {
		t.Error("UseHistory forced on despite an explicitly-touched block")
	}

	// Untouched block: the full paper defaults, history included.
	got = Config{}.withDefaults().Inference
	if !got.UseHistory || got.WWS != def.WWS || got.TriggerEvery != def.TriggerEvery {
		t.Errorf("zero config did not select the paper defaults: %+v", got)
	}

	// TriggerEvery alone survives (the old all-or-nothing code wiped it
	// back to 2500).
	cfg = Config{}
	cfg.Inference.TriggerEvery = 42
	if got = cfg.withDefaults().Inference; got.TriggerEvery != 42 || got.WWS != def.WWS {
		t.Errorf("TriggerEvery override lost: %+v", got)
	}

	// The engine's hot-path trigger cache honors the default.
	e := New(Config{LocalAS: 1, PrimaryNeighbor: 2})
	if e.triggerEvery != def.TriggerEvery {
		t.Errorf("triggerEvery cache = %d, want %d", e.triggerEvery, def.TriggerEvery)
	}
}

// TestBatchedApplyMatchesPerEvent replays the same stream once as one
// batch and once as one-event batches: the decisions must be
// identical — batching changes no paper semantics.
func TestBatchedApplyMatchesPerEvent(t *testing.T) {
	mk := func() (*Engine, *bgpsim.Network) { return fig1Engine(t, 1000, false) }
	batched, net := mk()
	perEvent, _ := mk()
	dg, dw := recordDecisions(batched), recordDecisions(perEvent)

	b, err := net.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.DefaultTiming(5))
	if err != nil {
		t.Fatal(err)
	}

	var batch event.Batch
	for _, ev := range b.Events {
		if ev.Kind == bgpsim.KindWithdraw {
			batch = append(batch, event.Withdraw(ev.At, ev.Prefix))
		} else {
			batch = append(batch, event.Announce(ev.At, ev.Prefix, ev.Path))
		}
	}
	batch = append(batch, event.Tick(b.Duration()+time.Minute))
	if err := batched.Apply(batch); err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if err := perEvent.Apply(batch[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}

	if len(*dg) == 0 || len(*dg) != len(*dw) {
		t.Fatalf("batched made %d decisions, per-event %d", len(*dg), len(*dw))
	}
	for i := range *dw {
		if g, w := (*dg)[i], (*dw)[i]; !sameDecision(g, w) {
			t.Errorf("decision %d: batched %+v vs per-event %+v", i, g, w)
		}
	}
}
