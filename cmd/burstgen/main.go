// Command burstgen materializes the synthetic RouteViews-like dataset as
// MRT files — one BGP4MP update file per requested session plus a
// TABLE_DUMP_V2 RIB snapshot — so external tooling (or this repo's own
// readers) can consume the traces exactly like collector archives. The
// emitted pair feeds straight into the event pipeline: swift-replay
// and mrt.Source replay it in-process, bmpgen replays it over the wire
// as a synthetic BMP router.
//
// Usage:
//
//	burstgen -out /tmp/swift-traces -sessions 3 -ases 400
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"swift/internal/bgpsim"
	"swift/internal/telemetry/logging"
	"swift/internal/trace"
)

func main() {
	var (
		out      = flag.String("out", "traces", "output directory")
		seed     = flag.Int64("seed", 1, "random seed")
		ases     = flag.Int("ases", 400, "topology size")
		sessions = flag.Int("sessions", 3, "sessions to materialize as MRT")
		failures = flag.Int("failures", 60, "failures over the month")
		maxPfx   = flag.Int("maxprefixes", 10000, "largest origin's prefix count")
		minBurst = flag.Int("minburst", 1000, "skip bursts smaller than this")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	)
	flag.Parse()
	lvl, lerr := logging.ParseLevel(*logLevel)
	if lerr != nil {
		logging.New(os.Stderr, logging.Info).Fatalf("%v", lerr)
	}
	logger := logging.New(os.Stderr, lvl)

	ds := trace.Generate(trace.Config{
		NumASes:           *ases,
		AvgDegree:         8.4,
		Sessions:          *sessions * 4,
		Days:              30,
		Failures:          *failures,
		MaxPrefixes:       *maxPfx,
		PopularASes:       15,
		ASFailureFraction: 0.15,
		Timing:            bgpsim.DefaultTiming(*seed),
		Seed:              *seed,
	})
	if err := os.MkdirAll(*out, 0o755); err != nil {
		logger.Fatalf("%v", err)
	}
	written := 0
	for _, s := range ds.Sessions {
		if written >= *sessions {
			break
		}
		// Updates: every burst of at least -minburst withdrawals,
		// offset by its failure time. Sessions without one are skipped.
		var updates bytes.Buffer
		n, bursts, err := ds.WriteSessionUpdates(&updates, s, *minBurst)
		if err != nil {
			logger.Fatalf("%v", err)
		}
		if bursts == 0 {
			continue
		}
		written++
		base := fmt.Sprintf("as%d-from-as%d", s.Vantage, s.Neighbor)
		if err := writeRIB(filepath.Join(*out, base+".rib.mrt"), ds, s); err != nil {
			logger.Fatalf("%v", err)
		}
		if err := os.WriteFile(filepath.Join(*out, base+".updates.mrt"), updates.Bytes(), 0o666); err != nil {
			logger.Fatalf("%v", err)
		}
		fmt.Printf("%s: %d bursts, %d update records (+ RIB snapshot)\n", base, bursts, n)
	}
	if written == 0 {
		fmt.Println("no sessions observed bursts at this scale; try more -failures")
	}
}

// writeRIB writes the session's TABLE_DUMP_V2 snapshot to path.
func writeRIB(path string, ds *trace.Dataset, s trace.Session) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := ds.WriteSessionRIB(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
