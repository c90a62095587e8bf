package experiments

import (
	"fmt"
	"strings"
	"time"

	"swift/internal/bgpsim"
	"swift/internal/inference"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
	"swift/internal/topology"
)

// Fig9Result reproduces the §7 case study: convergence of the vanilla
// router versus the SWIFTED one on a 290k-prefix burst, including the
// packet-loss time series of Fig. 9a.
type Fig9Result struct {
	Prefixes      int
	BGPDowntime   time.Duration
	SwiftDowntime time.Duration
	SpeedupPct    float64
	BGPSeries     []LossPoint
	SwiftSeries   []LossPoint
}

// Fig9 runs the case study at the given scale (the paper uses 290k).
func Fig9(prefixes int, seed int64) Fig9Result {
	net := &bgpsim.Network{
		Graph:   topology.Fig1(),
		Policy:  bgpsim.Fig1Network(1).Policy,
		Origins: map[uint32]int{6: prefixes},
	}
	b, err := net.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.TestbedTiming(seed))
	if err != nil {
		panic(err)
	}

	// SWIFTED side: engine provisioned with AS 3 as the alternate.
	sols := net.Solve(net.Graph)
	cfg := swiftengine.Config{LocalAS: 1, PrimaryNeighbor: 2}
	cfg.Inference = inference.Default()
	cfg.Inference.UseHistory = true
	e := swiftengine.New(cfg)
	for _, nb := range []uint32{2, 3, 4} {
		r, ok := sols[6].ExportTo(net.Graph, net.Policy, nb, 1)
		if !ok {
			continue
		}
		for i := 0; i < prefixes; i++ {
			p := netaddr.PrefixFor(6, i)
			if nb == 2 {
				e.LearnPrimary(p, r.Path)
			} else {
				e.LearnAlternate(nb, p, r.Path)
			}
		}
	}
	if err := e.Provision(); err != nil {
		panic(err)
	}
	src := &bgpsim.BurstSource{Bursts: []*bgpsim.Burst{b}, FinalTick: -1}
	if err := src.Run(e); err != nil {
		panic(err)
	}

	probes := SampleProbes(b, 100)
	bgpRestore := RestoreTimesBGP(b, bgpsim.PerPrefixUpdate)
	swiftRestore := RestoreTimesSwift(b, e.Decisions(), bgpsim.PerPrefixUpdate)
	dBGP := MeasureDowntime(bgpRestore, probes)
	dSwift := MeasureDowntime(swiftRestore, probes)

	step := dBGP.Last / 100
	if step <= 0 {
		step = time.Second
	}
	res := Fig9Result{
		Prefixes:      prefixes,
		BGPDowntime:   dBGP.Last,
		SwiftDowntime: dSwift.Last,
		BGPSeries:     LossSeries(bgpRestore, probes, step),
		SwiftSeries:   LossSeries(swiftRestore, probes, step),
	}
	if dBGP.Last > 0 {
		res.SpeedupPct = 100 * (1 - float64(dSwift.Last)/float64(dBGP.Last))
	}
	return res
}

// String renders the case-study summary and a coarse loss curve.
func (r Fig9Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig 9a / Sec 7 case study (%d prefixes)\n", r.Prefixes)
	fmt.Fprintf(&sb, "vanilla router downtime : %.1fs (paper 109s at 290k)\n", r.BGPDowntime.Seconds())
	fmt.Fprintf(&sb, "SWIFTED router downtime : %.1fs (paper <2s)\n", r.SwiftDowntime.Seconds())
	fmt.Fprintf(&sb, "speed-up                : %.1f%% (paper 98%%)\n", r.SpeedupPct)
	sb.WriteString("loss curve (time -> loss%) BGP | SWIFT:\n")
	for i := 0; i < len(r.BGPSeries); i += len(r.BGPSeries)/10 + 1 {
		p := r.BGPSeries[i]
		sw := 0.0
		for _, q := range r.SwiftSeries {
			if q.T >= p.T {
				sw = q.Loss
				break
			}
		}
		fmt.Fprintf(&sb, "  %6.1fs  %5.1f%% | %5.1f%%\n", p.T.Seconds(), 100*p.Loss, 100*sw)
	}
	return sb.String()
}
