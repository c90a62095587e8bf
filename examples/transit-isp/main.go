// Transit-ISP scenario: the paper's running example (Fig. 1) end to
// end. A transit provider's customer (AS 1) routes 21k prefixes through
// the chain 2→5→6 towards ASes 6, 7 and 8. The remote link (5,6) fails;
// AS 1's session with AS 2 sees 11k withdrawals interleaved with 10k
// path updates, replayed through a synthetic BurstSource into the
// engine's event pipeline. The example compares the downtime of a
// vanilla router against the SWIFTED one on the same burst — the §7
// case study at transit-ISP scale.
//
// Run: go run ./examples/transit-isp
package main

import (
	"fmt"
	"time"

	"swift"
	"swift/internal/bgpsim"
	"swift/internal/experiments"
	"swift/internal/netaddr"
	"swift/internal/topology"
)

func main() {
	const scale = 10000 // S7 and S8 originate 10k prefixes each, as in the paper
	net := bgpsim.Fig1Network(scale)
	fmt.Printf("Fig.1 network: %d ASes, %d links, %d prefixes in the table\n",
		net.Graph.NumASes(), net.Graph.NumLinks(), net.TotalPrefixes())

	// Provision AS 1's SWIFT engine from the simulator's ground truth.
	sols := net.Solve(net.Graph)
	cfg := swift.Config{LocalAS: 1, PrimaryNeighbor: 2}
	cfg.Inference = swift.DefaultInference() // 2.5k trigger, history on
	cfg.Observer.OnDecision = func(d swift.Decision) {
		fmt.Printf("  inference at %v: links %v (%d received), %d prefixes covered\n",
			d.At.Round(time.Millisecond), d.Result.Links, d.Result.Received, len(d.Predicted))
	}
	engine := swift.New(cfg)
	for origin := range net.Origins {
		for _, nb := range []uint32{2, 3, 4} {
			r, ok := sols[origin].ExportTo(net.Graph, net.Policy, nb, 1)
			if !ok {
				continue
			}
			for i := 0; i < net.Origins[origin]; i++ {
				p := netaddr.PrefixFor(origin, i)
				if nb == 2 {
					engine.LearnPrimary(p, r.Path)
				} else {
					engine.LearnAlternate(nb, p, r.Path)
				}
			}
		}
	}
	if err := engine.Provision(); err != nil {
		panic(err)
	}

	// Fail (5,6) and replay the burst (testbed arrival pacing) through
	// the shared event pipeline — exactly how a live feed would arrive.
	b, err := net.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.TestbedTiming(7))
	if err != nil {
		panic(err)
	}
	fmt.Printf("burst on the AS2 session: %d withdrawals + %d updates over %v\n",
		b.Size, len(b.Events)-b.Size, b.Duration().Round(time.Millisecond))

	src := &bgpsim.BurstSource{Bursts: []*bgpsim.Burst{b}, FinalTick: -1}
	if err := src.Run(engine); err != nil {
		panic(err)
	}

	// Compare data-plane downtime, probing 100 withdrawn prefixes.
	probes := experiments.SampleProbes(b, 100)
	bgpDown := experiments.MeasureDowntime(experiments.RestoreTimesBGP(b, 0), probes)
	swiftDown := experiments.MeasureDowntime(experiments.RestoreTimesSwift(b, engine.Decisions(), 0), probes)

	fmt.Printf("\nvanilla router : all probes restored after %v (median %v)\n",
		bgpDown.Last.Round(time.Millisecond), bgpDown.Median.Round(time.Millisecond))
	fmt.Printf("SWIFTED router : all probes restored after %v (median %v)\n",
		swiftDown.Last.Round(time.Millisecond), swiftDown.Median.Round(time.Millisecond))
	speedup := 100 * (1 - float64(swiftDown.Last)/float64(bgpDown.Last))
	fmt.Printf("speed-up       : %.1f%%\n", speedup)
}
