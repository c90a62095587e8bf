package swift

import (
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
	if got := e.Decisions(); len(got) != len(decisions) {
		t.Errorf("observer saw %d decisions, log has %d", len(decisions), len(got))
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

// TestDecisionsSnapshot pins the aliasing fix: mutating the returned
// slice must not corrupt engine state or later snapshots.
func TestDecisionsSnapshot(t *testing.T) {
	e, net := fig1Engine(t, 1000, false)
	b, err := net.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.DefaultTiming(5))
	if err != nil {
		t.Fatal(err)
	}
	playBurst(t, e, b)
	first := e.Decisions()
	if len(first) == 0 {
		t.Fatal("no decisions")
	}
	want := first[0].RulesInstalled
	first[0] = Decision{} // caller scribbles over its snapshot
	second := e.Decisions()
	if second[0].RulesInstalled != want {
		t.Error("mutating a Decisions() snapshot corrupted engine state")
	}
	if e.NumDecisions() != len(second) {
		t.Errorf("NumDecisions = %d, want %d", e.NumDecisions(), len(second))
	}
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

	dg, dw := batched.Decisions(), perEvent.Decisions()
	if len(dg) == 0 || len(dg) != len(dw) {
		t.Fatalf("batched made %d decisions, per-event %d", len(dg), len(dw))
	}
	for i := range dw {
		g, w := dg[i], dw[i]
		if g.At != w.At || g.RulesInstalled != w.RulesInstalled || len(g.Predicted) != len(w.Predicted) {
			t.Errorf("decision %d: batched %+v vs per-event %+v", i, g, w)
		}
		for j := range w.Result.Links {
			if g.Result.Links[j] != w.Result.Links[j] {
				t.Errorf("decision %d link %d: %v vs %v", i, j, g.Result.Links[j], w.Result.Links[j])
			}
		}
	}
}
