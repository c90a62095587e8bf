package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// The same seed must give the same bytes — the ledger compares runs of
// different code on identical inputs — and another seed other bytes.
func TestSameSeedSameWire(t *testing.T) {
	for _, sp := range workloads {
		a, b, c := generate(sp, 1, 0.5), generate(sp, 1, 0.5), generate(sp, lapSeed(1, 1), 0.5)
		if a.sum != b.sum {
			t.Errorf("%s: two generations from seed 1 differ: %s vs %s", sp.name, a.sum, b.sum)
		}
		if a.sum == c.sum {
			t.Errorf("%s: seeds 1 and 2 generate the same stream", sp.name)
		}
		if !bytes.Equal(a.table, b.table) {
			t.Errorf("%s: table transfers from seed 1 differ", sp.name)
		}
		for k := range a.wires {
			if !bytes.Equal(a.wires[k].body, b.wires[k].body) {
				t.Errorf("%s/%s: stream bodies from seed 1 differ", sp.name, a.phases[k].name)
			}
		}
		for i := range a.archives {
			if !bytes.Equal(a.archives[i].updates, b.archives[i].updates) || !bytes.Equal(a.archives[i].rib, b.archives[i].rib) {
				t.Errorf("%s: archive %d from seed 1 differs", sp.name, i)
			}
		}
	}
}

// A cyclic plan must end in the route state it started in, or replaying
// it would drift away from what the naive model expects.
func TestCyclicPlansReturnToStart(t *testing.T) {
	for _, sp := range workloads {
		in := generate(sp, 3, 0.5)
		g := newGenerator(in.w, 3, usec)
		cyclic := false
		for _, ph := range in.phases {
			cyclic = cyclic || ph.plan.cyclic
			if !ph.plan.cyclic {
				continue
			}
			for i := range ph.plan.msgs {
				m := &ph.plan.msgs[i]
				for x := m.first; x < m.first+m.n; x++ {
					g.state[m.peer][x] = m.state
				}
			}
			for p, st := range g.state {
				for x, r := range st {
					if r != routePresent {
						t.Fatalf("%s/%s: peer %d prefix %d ends the cycle in state %d", sp.name, ph.name, p, x, r)
					}
				}
			}
		}
		if !cyclic && (sp.name == "steady-churn" || sp.name == "fanout-100") {
			t.Errorf("%s has no cyclic phase", sp.name)
		}
	}
}

// The timed generator loop — chunk writes, open-loop waits, and the
// timestamp shift between replay cycles — must not allocate: the
// allocs_per_kevent it is measured beside belong to the program.
func TestPlayAllocatesNothing(t *testing.T) {
	closed := generate(specByName("steady-churn"), 1, 0.05).wires[0]
	const limit = 8
	stamps := make([]int64, limit*len(closed.chunks))
	if n := testing.AllocsPerRun(3, func() {
		// until lies far in the future, so the loop replays the plan, with a
		// shift between cycles, until the limit stops it.
		if cycles, err := closed.play(io.Discard, time.Now(), time.Hour, limit, stamps); cycles != limit || err != errTooShort {
			t.Fatalf("%d cycles, error %v", cycles, err)
		}
	}); n != 0 {
		t.Errorf("closed loop: %v allocations per run", n)
	}
	open := generate(specByName("burst-storm"), 1, 0.05).wires[0]
	stamps = make([]int64, len(open.chunks))
	if n := testing.AllocsPerRun(2, func() {
		if _, err := open.play(io.Discard, time.Now(), 0, 1, stamps); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("open loop: %v allocations per run", n)
	}
}

// A program too fast for its plan must fail the run, not slip out of the
// measurement: replaying a cyclic plan stops at the cycle limit with
// errTooShort, and a phase that hits it is an error.
func TestCycleLimitFailsTheRun(t *testing.T) {
	sp := specByName("steady-churn")
	in := generate(sp, 1, 0.01)
	r, err := newRig(sp, in.w, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if err := r.loadTables(in); err != nil {
		t.Fatal(err)
	}
	// A phase an hour long: the tiny plan reaches maxCycles long before.
	in.phases[0].share = 3600 / 0.01
	if _, err := r.stream(in, 0, 0.01); !errors.Is(err, errTooShort) {
		t.Errorf("stream returned %v, want errTooShort", err)
	}
}

// A scaled-down run of every workload: tier-1 exercises the harness end
// to end — generation, loopback sessions, checks, rounds, forwarding —
// without running the benchmark. The four run side by side; nothing
// here asserts a time.
func TestSmoke(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			rep, err := run(sp, 1, runOpts{seconds: 0.4, laps: 1, setups: 1, dir: t.TempDir()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Errorf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.failures)
			}
			for _, d := range endToEnd {
				if v, ok := rep.e2e[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s = %v", d.name, v)
				}
			}
		})
	}
}

// One traced run: every per-layer metric must come out of the trace,
// and come out the same from the trace file as from memory.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced smoke skipped in -short mode")
	}
	tr := newTracer()
	rep, err := run(specByName("burst-storm"), 1, runOpts{seconds: 0.4, laps: 1, setups: 2, dir: t.TempDir()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Errorf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.failures)
	}
	for _, d := range perLayer {
		if v, ok := rep.layer[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", d.name, v)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.write(path, "burst-storm", newProvenance(1, 0.4)); err != nil {
		t.Fatal(err)
	}
	spans, counts, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range layerMetrics(spans, counts) {
		if w := rep.layer[name]; v != w && !(math.IsNaN(v) && math.IsNaN(w)) {
			t.Errorf("%s: %v from the trace file, %v from memory", name, v, w)
		}
	}
}

func TestSelfTimeIsSpanMinusChildCover(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a", Start: 30, End: 60, Parent: 0},  // overlaps the first child
		{Name: "b", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "leaf", Start: 12, End: 20, Parent: 1},
	}
	lt := selfTimes(spans)
	if got := lt["root"].self; got != 100-50-10 {
		t.Errorf("root self = %d, want 40 (children cover 10..60 and 90..100)", got)
	}
	if got := lt["a"].self; got != (30-8)+30 {
		t.Errorf("a self = %d, want 52", got)
	}
	if got := lt["a"].total; got != 60 {
		t.Errorf("a total = %d, want 60", got)
	}
}

// BENCHMARK.json at the root must say what the tables here say: the same
// workloads, metrics, units, directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(benchmarkJSON()), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go and workloads.go; it should read:\n%s", benchmarkJSON())
	}
}
