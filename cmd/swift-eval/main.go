// Command swift-eval runs a named failure-scenario matrix through the
// packet-level scenario engine and writes the JSON loss report.
//
// Every scenario builds a routed topology, injects a failure, replays
// the resulting BGP bursts into a fleet of SWIFT engines, and forwards
// a synthetic flow set through the real two-stage FIB at every
// virtual-time tick — scoring packets lost with SWIFT's fast reroute
// against a vanilla router converging one FIB write at a time on the
// same stream.
//
// -mode selects the fleet's inference mode: "per-peer" is classic
// SWIFT (each session infers and acts alone), "fused" shares one
// evidence aggregator across the fleet (cross-peer corroboration,
// conflict vetoes and verdict pre-triggering), and "both" runs the two
// on the same seed and prints the per-family comparison table.
//
// The run is deterministic: the same -matrix, -seed and -mode produce
// a byte-identical report.
//
//	swift-eval -matrix default -seed 1 -o report.json
//	swift-eval -matrix default -seed 1 -mode both
//	swift-eval -list
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"swift/internal/scenario"
)

func main() {
	matrix := flag.String("matrix", "default", "scenario matrix to run")
	seed := flag.Int64("seed", 1, "matrix seed (same seed, same report)")
	mode := flag.String("mode", scenario.ModePerPeer, "evaluation mode: per-peer, fused or both")
	out := flag.String("o", "", "write the JSON report to this file (default stdout only)")
	list := flag.Bool("list", false, "list matrix names and their scenarios, then exit")
	quiet := flag.Bool("q", false, "suppress the rendered table")
	flag.Parse()

	if *list {
		for _, name := range scenario.MatrixNames() {
			specs, err := scenario.Matrix(name, *seed)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s (%d scenarios)\n", name, len(specs))
			for _, s := range specs {
				fmt.Printf("  %s\n", s.Name)
			}
		}
		return
	}

	var render string
	var buf []byte
	var err error
	start := time.Now()
	switch *mode {
	case "both":
		var cmp *scenario.ModeComparison
		if cmp, err = scenario.CompareScenarioModes(*matrix, *seed); err != nil {
			fatal(err)
		}
		render = scenario.RenderModeComparison(cmp)
		if *out != "" {
			buf, err = cmp.JSON()
		}
	case "", scenario.ModePerPeer, scenario.ModeFused:
		var rep *scenario.MatrixReport
		if rep, err = scenario.RunMode(*matrix, *seed, *mode == scenario.ModeFused); err != nil {
			fatal(err)
		}
		render = scenario.RenderScenarioMatrix(rep)
		if *out != "" {
			buf, err = rep.JSON()
		}
	default:
		fatal(fmt.Errorf("unknown evaluation mode %q (have %q, %q, %q)",
			*mode, scenario.ModePerPeer, scenario.ModeFused, "both"))
	}
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	// Wall clock goes to stderr only: the report (stdout/-o) must stay
	// byte-identical run to run for the determinism smoke.
	fmt.Fprintf(os.Stderr, "swift-eval: matrix %q (%s) evaluated in %s\n",
		*matrix, *mode, elapsed.Round(time.Millisecond))
	if !*quiet {
		fmt.Print(render)
	}
	if *out != "" {
		buf = append(buf, '\n')
		if err := writeFileAtomic(*out, buf); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "swift-eval: report written to %s\n", *out)
	}
}

// writeFileAtomic writes via a temp file in the target directory plus
// rename, so an interrupted run never leaves a truncated report for
// CI's byte-compare to trip over.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swift-eval:", err)
	os.Exit(1)
}
