package experiments

import (
	"testing"
	"time"

	"swift/internal/bgpsim"
	"swift/internal/inference"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
	"swift/internal/topology"
)

func fig1Burst(t *testing.T, scale int, seed int64) (*bgpsim.Network, *bgpsim.Burst) {
	t.Helper()
	net := bgpsim.Fig1Network(scale)
	// Router-convergence experiments model the paper's controlled
	// testbed (Table 1, Fig. 9a), not Internet-tail arrival.
	b, err := net.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.TestbedTiming(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net, b
}

func TestRestoreTimesBGPSerial(t *testing.T) {
	_, b := fig1Burst(t, 1000, 1)
	restore := RestoreTimesBGP(b, bgpsim.PerPrefixUpdate)
	if len(restore) != b.Size {
		t.Fatalf("restore entries = %d, want %d", len(restore), b.Size)
	}
	// Restoration can never precede the withdrawal's arrival.
	arrival := make(map[netaddr.Prefix]time.Duration)
	for _, ev := range b.Events {
		if ev.Kind == bgpsim.KindWithdraw {
			arrival[ev.Prefix] = ev.At
		}
	}
	for p, r := range restore {
		if r < arrival[p] {
			t.Fatalf("prefix %v restored at %v before arrival %v", p, r, arrival[p])
		}
	}
}

func TestDowntimeScalesWithBurstSize(t *testing.T) {
	// Table 1's shape: downtime grows roughly linearly with burst size.
	_, small := fig1Burst(t, 1000, 2)
	_, large := fig1Burst(t, 10000, 2)
	dSmall := MeasureDowntime(RestoreTimesBGP(small, 0), SampleProbes(small, 100))
	dLarge := MeasureDowntime(RestoreTimesBGP(large, 0), SampleProbes(large, 100))
	if dLarge.Last <= dSmall.Last {
		t.Errorf("downtime must grow with burst size: %v vs %v", dSmall.Last, dLarge.Last)
	}
	ratio := float64(dLarge.Last) / float64(dSmall.Last)
	if ratio < 3 || ratio > 30 {
		t.Errorf("10x burst gave %gx downtime; expected roughly linear growth", ratio)
	}
}

func TestSwiftBeatsBGP(t *testing.T) {
	net, b := fig1Burst(t, 2000, 3)
	// Build a SWIFTED engine and harvest its decisions.
	sols := net.Solve(net.Graph)
	cfg := swiftengine.Config{LocalAS: 1, PrimaryNeighbor: 2}
	cfg.Inference = inference.Default()
	cfg.Inference.TriggerEvery = 500
	cfg.Inference.UseHistory = false
	cfg.Encoding.MinPrefixes = 200
	cfg.Burst.StartThreshold = 200
	e := swiftengine.New(cfg)
	for origin := range net.Origins {
		for _, nb := range []uint32{2, 3, 4} {
			r, ok := sols[origin].ExportTo(net.Graph, net.Policy, nb, 1)
			if !ok {
				continue
			}
			for i := 0; i < net.Origins[origin]; i++ {
				p := netaddr.PrefixFor(origin, i)
				if nb == 2 {
					e.LearnPrimary(p, r.Path)
				} else {
					e.LearnAlternate(nb, p, r.Path)
				}
			}
		}
	}
	if err := e.Provision(); err != nil {
		t.Fatal(err)
	}
	if err := (&bgpsim.BurstSource{Bursts: []*bgpsim.Burst{b}, FinalTick: -1}).Run(e); err != nil {
		t.Fatal(err)
	}
	if len(e.Decisions()) == 0 {
		t.Fatal("no decisions")
	}

	probes := SampleProbes(b, 100)
	bgpRestore := RestoreTimesBGP(b, 0)
	swiftRestore := RestoreTimesSwift(b, e.Decisions(), 0)
	dBGP := MeasureDowntime(bgpRestore, probes)
	dSwift := MeasureDowntime(swiftRestore, probes)
	if dSwift.Median >= dBGP.Median {
		t.Errorf("SWIFT median %v must beat BGP median %v", dSwift.Median, dBGP.Median)
	}
	// The paper's headline 98% reduction emerges at the case-study
	// scale (the bench harness checks it); at this 2.2k-burst scale the
	// first inference lands ~a quarter into the burst, so demand a
	// clear but smaller margin.
	if float64(dSwift.Median) > 0.7*float64(dBGP.Median) {
		t.Errorf("SWIFT median %v not <70%% of BGP median %v", dSwift.Median, dBGP.Median)
	}
}

func TestLossSeriesMonotone(t *testing.T) {
	_, b := fig1Burst(t, 1000, 4)
	restore := RestoreTimesBGP(b, 0)
	series := LossSeries(restore, SampleProbes(b, 50), 100*time.Millisecond)
	if len(series) == 0 {
		t.Fatal("empty series")
	}
	if series[0].Loss != 1.0 {
		t.Errorf("loss at t=0 = %v, want 1.0 (all probes dark)", series[0].Loss)
	}
	last := series[len(series)-1]
	if last.Loss != 0 {
		t.Errorf("final loss = %v, want 0", last.Loss)
	}
	for i := 1; i < len(series); i++ {
		if series[i].Loss > series[i-1].Loss {
			t.Fatal("loss must be non-increasing")
		}
	}
}

func TestSampleProbes(t *testing.T) {
	_, b := fig1Burst(t, 1000, 5)
	probes := SampleProbes(b, 100)
	if len(probes) != 100 {
		t.Fatalf("probes = %d", len(probes))
	}
	seen := make(map[netaddr.Prefix]bool)
	for _, p := range probes {
		if seen[p] {
			t.Fatal("duplicate probe")
		}
		seen[p] = true
	}
	// Asking for more probes than withdrawals returns all withdrawals.
	all := SampleProbes(b, 1<<30)
	if len(all) != b.Size {
		t.Errorf("all probes = %d, want %d", len(all), b.Size)
	}
}

func TestMeasureDowntimeEmpty(t *testing.T) {
	if d := MeasureDowntime(nil, nil); d.Last != 0 {
		t.Error("empty restore map must yield zero downtime")
	}
}
