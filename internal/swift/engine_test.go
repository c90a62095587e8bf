package swift

import (
	"testing"
	"time"

	"swift/internal/bgpsim"
	"swift/internal/burst"
	"swift/internal/event"
	"swift/internal/inference"
	"swift/internal/netaddr"
	"swift/internal/topology"
)

// fig1Engine builds a provisioned engine for AS 1's session with AS 2
// at the given per-origin scale, loading alternates from AS 3 and 4 out
// of the simulator's ground-truth routing.
func fig1Engine(t *testing.T, scale int, useHistory bool) (*Engine, *bgpsim.Network) {
	t.Helper()
	net := bgpsim.Fig1Network(scale)
	sols := net.Solve(net.Graph)

	cfg := Config{LocalAS: 1, PrimaryNeighbor: 2}
	cfg.Inference = inference.Default()
	cfg.Inference.UseHistory = useHistory
	// Scale-dependent trigger so tests at small scale still exercise
	// several inference rounds.
	cfg.Inference.TriggerEvery = scale / 4
	if cfg.Inference.TriggerEvery < 10 {
		cfg.Inference.TriggerEvery = 10
	}
	cfg.Encoding.MinPrefixes = scale / 10
	cfg.Burst = burst.Config{StartThreshold: scale / 10, StopThreshold: 9}
	e := New(cfg)

	for origin := range net.Origins {
		for neighbor, table := range map[uint32]bool{2: true, 3: false, 4: false} {
			_ = table
			r, ok := sols[origin].ExportTo(net.Graph, net.Policy, neighbor, 1)
			if !ok {
				continue
			}
			for i := 0; i < net.Origins[origin]; i++ {
				p := netaddr.PrefixFor(origin, i)
				if neighbor == 2 {
					e.LearnPrimary(p, r.Path)
				} else {
					e.LearnAlternate(neighbor, p, r.Path)
				}
			}
		}
	}
	if err := e.Provision(); err != nil {
		t.Fatal(err)
	}
	return e, net
}

// playBurst replays b into e and closes it with a tick one minute past
// its last event.
func playBurst(t *testing.T, e *Engine, b *bgpsim.Burst) {
	t.Helper()
	if err := (&bgpsim.BurstSource{Bursts: []*bgpsim.Burst{b}}).Run(e); err != nil {
		t.Fatal(err)
	}
}

func TestEngineEndToEndFig1(t *testing.T) {
	e, net := fig1Engine(t, 1000, false)
	b, err := net.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.DefaultTiming(5))
	if err != nil {
		t.Fatal(err)
	}

	// Pre-failure: packets for S8 leave via AS 2.
	if nh, ok := e.FIB().ForwardPrefix(netaddr.PrefixFor(8, 0)); !ok || nh != 2 {
		t.Fatalf("pre-failure forward = %d, %v; want 2", nh, ok)
	}

	playBurst(t, e, b)

	if len(e.Decisions()) == 0 {
		t.Fatal("no inference decision on an 1100-withdrawal burst")
	}
	// Early decisions may blame links adjacent to the failure (the
	// paper's §6.2.2 reports exactly this for 91% of early inferences);
	// every decision must at least touch the failed link's endpoints,
	// and the final one must pin (5,6) itself.
	for i, d := range e.Decisions() {
		touches := false
		for _, l := range d.Result.Links {
			if l.Has(5) || l.Has(6) {
				touches = true
			}
		}
		if !touches {
			t.Errorf("decision %d links %v unrelated to the failure", i, d.Result.Links)
		}
	}
	last := e.Decisions()[len(e.Decisions())-1]
	foundFailed := false
	for _, l := range last.Result.Links {
		if l == topology.MakeLink(5, 6) {
			foundFailed = true
		}
	}
	if !foundFailed {
		t.Errorf("final inference %v does not include (5,6)", last.Result.Links)
	}
	if last.RulesInstalled == 0 || last.RulesInstalled > 50 {
		t.Errorf("rules installed = %d; want a handful", last.RulesInstalled)
	}
	if last.DataplaneTime > 130*time.Millisecond {
		t.Errorf("data-plane update time %v exceeds the paper's 130ms bound", last.DataplaneTime)
	}
	// After the burst the engine must have fallen back (burst ended).
	if e.RerouteActive() {
		t.Error("reroute must be withdrawn after convergence")
	}
}

func TestEngineReroutesDuringBurst(t *testing.T) {
	e, net := fig1Engine(t, 1000, false)
	b, err := net.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.DefaultTiming(5))
	if err != nil {
		t.Fatal(err)
	}
	// Feed most of the burst (enough for the inference to converge on
	// the failed link — early triggers blame the adjacent, S8-heavy
	// (6,8) first, as in §6.2.2), then inspect the FIB mid-flight.
	head := *b
	head.Events = b.Events[:len(b.Events)*95/100]
	if err := (&bgpsim.BurstSource{Bursts: []*bgpsim.Burst{&head}, FinalTick: -1}).Run(e); err != nil {
		t.Fatal(err)
	}
	if !e.RerouteActive() {
		t.Fatal("reroute should be active mid-burst")
	}
	// A not-yet-withdrawn S8 prefix must now leave via AS 3 (the only
	// (5,6)-free neighbor), not via the blackholed AS 2 path.
	var survivor netaddr.Prefix
	for i := net.Origins[8] - 1; i >= 0; i-- {
		p := netaddr.PrefixFor(8, i)
		if e.RIB().Path(p) != nil {
			survivor = p
			break
		}
	}
	if survivor == netaddr.Invalid {
		t.Skip("all of S8 already withdrawn at the cut point")
	}
	nh, ok := e.FIB().ForwardPrefix(survivor)
	if !ok {
		t.Fatal("survivor prefix dropped")
	}
	if nh != 3 {
		t.Errorf("survivor forwarded to %d, want backup 3", nh)
	}
}

func TestEngineLearningTimeAdvantage(t *testing.T) {
	// Fig. 8's mechanism: SWIFT "learns" predicted prefixes at decision
	// time, far before their withdrawals arrive.
	e, net := fig1Engine(t, 1000, false)
	b, err := net.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.DefaultTiming(5))
	if err != nil {
		t.Fatal(err)
	}
	playBurst(t, e, b)
	if len(e.Decisions()) == 0 {
		t.Fatal("no decisions")
	}
	d := e.Decisions()[0]
	if d.At >= b.Duration() {
		t.Errorf("decision at %v is not earlier than the burst end %v", d.At, b.Duration())
	}
	if len(d.Predicted) == 0 {
		t.Error("decision predicted nothing")
	}
}

func TestEngineHistoryGateDefersEarlyLargePredictions(t *testing.T) {
	// With history on and a trigger bracket demanding confirmation, the
	// first inference of a huge predicted set must be deferred.
	e, net := fig1Engine(t, 1000, true)
	// Tighten the plausibility: nothing below 10k received is plausible
	// if it predicts more than 50 prefixes.
	e.cfg.Inference.Plausibility = []inference.PlausibilityRule{
		{Received: 10000, MaxPredicted: 50},
	}
	e.cfg.Inference.AcceptAlways = 1 << 30
	e.tracker = inference.NewTracker(e.cfg.Inference, e.table)

	b, err := net.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.DefaultTiming(5))
	if err != nil {
		t.Fatal(err)
	}
	playBurst(t, e, b)
	if e.Deferred() == 0 {
		t.Error("expected deferred inferences under the strict gate")
	}
	if len(e.Decisions()) != 0 {
		t.Error("no decision should pass a gate requiring 10k received")
	}
}

func TestEngineNoiseDoesNotTrigger(t *testing.T) {
	e, _ := fig1Engine(t, 1000, false)
	// Sparse background withdrawals (1 per minute) must never trigger.
	var noise event.Batch
	for i := 0; i < 50; i++ {
		noise = append(noise, event.Withdraw(time.Duration(i)*time.Minute, netaddr.PrefixFor(8, i)))
	}
	if err := e.Apply(noise); err != nil {
		t.Fatal(err)
	}
	if len(e.Decisions()) != 0 || e.RerouteActive() {
		t.Error("background noise caused a reroute")
	}
	// Stale-noise reset: the tracker must not have accumulated all 50.
	if got := e.tracker.Received(); got > 2 {
		t.Errorf("tracker accumulated %d stale withdrawals", got)
	}
}

func TestEngineFallbackRestoresPrimary(t *testing.T) {
	e, net := fig1Engine(t, 1000, false)
	b, err := net.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.DefaultTiming(5))
	if err != nil {
		t.Fatal(err)
	}
	playBurst(t, e, b)
	// S7 converged onto the new path via 2; after fallback the FIB must
	// follow BGP again (rules at reroute priority are gone).
	if e.FIB().NumRules() == 0 {
		t.Fatal("FIB has no rules after fallback")
	}
	nh, ok := e.FIB().ForwardPrefix(netaddr.PrefixFor(7, 0))
	if !ok {
		t.Fatal("S7 dropped after convergence")
	}
	if nh != 2 {
		t.Errorf("S7 forwarded to %d after fallback, want primary 2", nh)
	}
}
