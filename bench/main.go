// Command bench is the wire-to-rule ledger: the one benchmark every
// performance claim about this repository is measured with. It drives
// the real pipeline in-process — pre-encoded BMP frames over loopback
// TCP into bmp.Station, controller.Fleet, one swift.Engine per peer and
// their two-stage dataplane.FIBs (or MRT archives through mrt.Source) —
// using only public functions and the existing observer, sink and
// provisioner hooks, checks that the outputs are correct, and prints
// every metric by name and unit. See README.md.
//
//	go run ./bench                         every workload, untraced then traced
//	go run ./bench -workload burst-storm   one workload, both modes
//	go run ./bench -workload burst-storm -seed 7 -seconds 10 -trace 0
//	go run ./bench -selfcheck              two full untraced sets, compared against the bounds
//
// With -workload and -trace 0 or 1 the last line of standard output is
// the machine-readable result BENCHMARK.json describes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all four)")
		seed      = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", runSeconds, "length of the measured sections of one run, all laps together")
		mode      = flag.String("trace", "both", "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics); both")
		traceOut  = flag.String("trace-out", "", "write the traced run's spans and counts to this file as JSON Lines")
		selfcheck = flag.Bool("selfcheck", false, "run two full untraced sets and compare them against the bounds")
	)
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || (*mode != "0" && *mode != "1" && *mode != "both") {
		flag.Usage()
		os.Exit(2)
	}
	specs := workloads
	if *workload != "" {
		sp := specByName(*workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		specs = []*spec{sp}
	}
	prov := newProvenance(*seed, *seconds)
	out, _ := json.Marshal(struct {
		Provenance *provenance `json:"provenance"`
	}{prov})
	fmt.Printf("%s\n", out)

	if *selfcheck {
		os.Exit(runSelfcheck(specs, *seed, *seconds))
	}
	ok := true
	var last *report
	for _, sp := range specs {
		var plain *report
		if *mode != "1" {
			rep, err := run(sp, *seed, fullSize(*seconds), nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
				os.Exit(1)
			}
			rep.print(slices.Concat(endToEnd, unresolved), rep.e2e)
			ok, plain, last = ok && rep.failed == 0, rep, rep
		}
		if *mode != "0" {
			tr := newTracer()
			rep, err := run(sp, *seed, tracedSize(*seconds), tr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (traced): %v\n", sp.name, err)
				os.Exit(1)
			}
			if *traceOut != "" {
				path := *traceOut
				if len(specs) > 1 {
					path = strings.TrimSuffix(path, ".jsonl") + "." + sp.name + ".jsonl"
				}
				if err := tr.write(path, sp.name, prov); err != nil {
					fmt.Fprintf(os.Stderr, "bench: writing trace: %v\n", err)
					os.Exit(1)
				}
				// The table is computed from the file, not from memory: what
				// is printed is what the file alone lets anyone recompute.
				spans, counts, err := readTrace(path)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: reading trace back: %v\n", err)
					os.Exit(1)
				}
				rep.layer = layerMetrics(spans, counts)
			}
			if plain != nil {
				base, traced := plain.e2e["pipeline.ingest_events_per_s"], rep.e2e["pipeline.ingest_events_per_s"]
				rep.layer["bench.trace_overhead_share"] = (base - traced) / base
			}
			rep.print(slices.Concat(perLayer, health), rep.layer)
			ok, last = ok && rep.failed == 0, rep
		}
	}
	if *workload != "" && *mode != "both" {
		defs, values := endToEnd, last.e2e
		if *mode == "1" {
			defs, values = perLayer, last.layer
		}
		fmt.Println(last.resultLine(defs, values))
	}
	if !ok {
		os.Exit(1)
	}
}

// benchmarkJSON renders BENCHMARK.json from the workload and metric
// tables, so the file at the root of the repository cannot drift from
// the code (a test compares them).
func benchmarkJSON() string {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	b := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, sp := range workloads {
		b.Workloads = append(b.Workloads, workload{sp.name, sp.why})
	}
	for i := range endToEnd {
		d := &endToEnd[i]
		b.EndToEnd = append(b.EndToEnd, metric{d.name, d.unit, d.better, &d.bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, metric{d.name, d.unit, d.better, nil})
	}
	out, err := json.MarshalIndent(b, "", "  ")
	check(err)
	return string(out)
}

// tracedSize is one lap of a full-size run: the traced run measures the
// same phases at the same scale as each untraced lap, once.
func tracedSize(seconds float64) runOpts {
	opts := fullSize(seconds)
	opts.laps = 1
	return opts
}

// provenance says where a result came from. A dirty tree is recorded,
// not refused: the ledger may be run on an applied patch.
type provenance struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu_model"`
	Go         string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Dirty      bool    `json:"dirty"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"run_seconds"`
	Repeats    string  `json:"repeats"`
	StormRate  int     `json:"offered_events_per_s_burst_storm"`
	Transport  string  `json:"transport"`
}

func newProvenance(seed int64, seconds float64) *provenance {
	p := &provenance{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Go: runtime.Version(),
		Commit: "unknown", Seed: seed, Seconds: seconds,
		Repeats:   fmt.Sprintf("%d laps per run, %d set-ups per lap; medians over set-ups, laps, rounds and bursts (README.md)", defaultLaps, setupsPerLap),
		StormRate: stormRate,
		Transport: "loopback TCP, one BMP connection multiplexing all peers (restart-forward: in-memory MRT through mrt.Source)",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

// print writes one line per metric: workload, name, value, unit.
func (rep *report) print(defs []metricDef, values map[string]float64) {
	fmt.Printf("# %s seed=%d seconds=%g sha256=%s attempted=%d failed=%d failed_ops_share=%.3g samples=%v\n",
		rep.workload, rep.seed, rep.seconds, rep.sum, rep.attempted, rep.failed, float64(rep.failed)/float64(rep.attempted), rep.samples)
	for _, f := range rep.failures {
		fmt.Printf("# FAILED: %s\n", f)
	}
	for _, note := range slices.Sorted(maps.Keys(rep.notes)) {
		if n := rep.notes[note]; n > 0 {
			fmt.Printf("# NOTE: %d %s\n", n, note)
		}
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			continue
		}
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf("  (bound %.0f%%)", d.bound*100)
		}
		fmt.Printf("%-16s %-42s %16.6g %s%s\n", rep.workload, d.name, v, d.unit, bound)
	}
}

// resultLine renders the machine-readable result: exactly the metrics
// in defs. A metric that could not be measured (a burst percentile with
// too many misses is +Inf) is reported as the largest float and the run
// as incorrect.
func (rep *report) resultLine(defs []metricDef, values map[string]float64) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]mv)}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v, res.Correct = math.MaxFloat64, false
		}
		res.Metrics[d.name] = mv{v, d.unit}
	}
	out, err := json.Marshal(res)
	check(err)
	return string(out)
}

// runSelfcheck runs every workload twice, untraced, and prints each
// end-to-end metric's relative difference beside its bound, then the
// unresolved figures' differences, which have none. It returns the exit
// code: non-zero when a difference exceeds its bound or a run failed an
// operation.
func runSelfcheck(specs []*spec, seed int64, seconds float64) int {
	code := 0
	var sets [2][]*report
	for set := range sets {
		for _, sp := range specs {
			rep, err := run(sp, seed, fullSize(seconds), nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
				return 1
			}
			rep.print(slices.Concat(endToEnd, unresolved), rep.e2e)
			if rep.failed != 0 {
				code = 1
			}
			sets[set] = append(sets[set], rep)
		}
	}
	fmt.Printf("%-16s %-34s %14s %14s %9s %10s\n", "workload", "metric", "first", "second", "worse by", "bound")
	// Both sets ran the same code: a second set that is better by more
	// than the bound is as much a failure to repeat as one that is worse.
	for i := range specs {
		a, b := sets[0][i], sets[1][i]
		for _, d := range slices.Concat(endToEnd, unresolved) {
			x, ok := a.e2e[d.name]
			if !ok {
				continue
			}
			y := b.e2e[d.name]
			worse := (y - x) / x
			if d.better == "higher" {
				worse = (x - y) / x
			}
			verdict := "unresolved"
			if d.bound > 0 {
				verdict = fmt.Sprintf("%.0f%%", d.bound*100)
				if math.Abs(worse) > d.bound || math.IsNaN(worse) {
					verdict, code = verdict+"  EXCEEDS", 1
				}
			}
			fmt.Printf("%-16s %-34s %14.6g %14.6g %8.1f%% %10s\n", a.workload, d.name, x, y, worse*100, verdict)
		}
	}
	return code
}
