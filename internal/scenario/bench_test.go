package scenario

import "testing"

// BenchmarkScenarioEval measures one full scenario evaluation: build
// the routed topology, replay the failure into a provisioned engine
// fleet, and forward the flow set through both dataplanes at every
// virtual-time tick.
func BenchmarkScenarioEval(b *testing.B) {
	spec := Spec{Name: "bench", Seed: 1, Topology: TopoFig1, PrefixesPerOrigin: 150, HopsAway: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc, err := Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sc.Eval(false)
		if err != nil {
			b.Fatal(err)
		}
		if rep.SwiftLost >= rep.BGPLost {
			b.Fatalf("swift %d >= bgp %d", rep.SwiftLost, rep.BGPLost)
		}
	}
}

// BenchmarkScenarioBuild isolates scenario construction: topology
// generation, routing solve, failure selection and burst replay.
func BenchmarkScenarioBuild(b *testing.B) {
	spec := Spec{Name: "bench", Seed: 1, Topology: TopoGenerated, NumASes: 40, PrefixesPerOrigin: 60, HopsAway: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(spec); err != nil {
			b.Fatal(err)
		}
	}
}
