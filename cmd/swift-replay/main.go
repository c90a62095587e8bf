// Command swift-replay runs the SWIFT engine over MRT trace files — a
// RIB snapshot (TABLE_DUMP_V2) plus an update stream (BGP4MP), i.e. the
// artifact pair RouteViews collectors publish and cmd/burstgen emits.
// It reports every burst the engine detects and every inference and
// reroute it performs, making it the offline analysis twin of swiftd.
//
// The replay is one mrt.Source feeding one engine through the shared
// event-stream pipeline: the RIB snapshot loads through the sink's
// table-transfer surface, the update records stream as timestamped
// event batches, and the engine's Observer hooks report bursts and
// reroutes as they happen.
//
// Usage:
//
//	burstgen -out traces -sessions 1
//	swift-replay -rib traces/asX-from-asY.rib.mrt \
//	             -updates traces/asX-from-asY.updates.mrt \
//	             -local-as X -peer-as Y
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"swift/internal/event"
	"swift/internal/inference"
	"swift/internal/mrt"
	swiftengine "swift/internal/swift"
	"swift/internal/telemetry/logging"
)

func main() {
	var (
		ribPath  = flag.String("rib", "", "TABLE_DUMP_V2 RIB snapshot (required)")
		updPath  = flag.String("updates", "", "BGP4MP update stream (required)")
		localAS  = flag.Uint("local-as", 0, "vantage AS number (required)")
		peerAS   = flag.Uint("peer-as", 0, "monitored peer AS number (required)")
		trigger  = flag.Int("trigger", 2500, "inference trigger threshold")
		start    = flag.Int("start-threshold", 1500, "burst start threshold")
		history  = flag.Bool("history", true, "use the plausibility gate")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	)
	flag.Parse()
	lvl, lerr := logging.ParseLevel(*logLevel)
	if lerr != nil {
		logging.New(os.Stderr, logging.Info).Fatalf("%v", lerr)
	}
	logger := logging.New(os.Stderr, lvl)
	if *ribPath == "" || *updPath == "" || *localAS == 0 || *peerAS == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// The Observer hooks are the replay's live reporting surface; Logf
	// stays unset so nothing is printed twice.
	cfg := swiftengine.Config{
		LocalAS:         uint32(*localAS),
		PrimaryNeighbor: uint32(*peerAS),
	}
	cfg.Observer = swiftengine.LoggingObserver(logger.Infof)
	// The summary keeps each decision's printed line, not its predicted
	// set, so a long archive's replay does not grow with its decisions.
	var summary []string
	logDecision := cfg.Observer.OnDecision
	cfg.Observer.OnDecision = func(d swiftengine.Decision) {
		logDecision(d)
		summary = append(summary, fmt.Sprintf("at %v: links %v (received %d, predicted %d, %d rules, %v)",
			d.At.Round(time.Millisecond), d.Result.Links, d.Result.Received,
			len(d.Predicted), d.RulesInstalled, d.DataplaneTime))
	}
	cfg.Inference = inference.Default()
	cfg.Inference.TriggerEvery = *trigger
	cfg.Inference.UseHistory = *history
	cfg.Burst.StartThreshold = *start
	engine := swiftengine.New(cfg)

	rib, err := os.Open(*ribPath)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	defer rib.Close()
	upd, err := os.Open(*updPath)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	defer upd.Close()

	src := &mrt.Source{
		RIB:       rib,
		Updates:   upd,
		Peer:      event.PeerKey{AS: uint32(*peerAS), BGPID: uint32(*peerAS)},
		FinalTick: time.Hour, // close any open burst
	}
	if err := src.Run(swiftengine.NewSessionSink(engine)); err != nil {
		logger.Fatalf("replay: %v", err)
	}

	fmt.Printf("\nreplayed %d per-prefix events over %d RIB routes\n", src.Events, src.Routes)
	fmt.Printf("decisions: %d accepted, %d deferred by the gate\n",
		engine.NumDecisions(), engine.Deferred())
	for i, line := range summary {
		fmt.Printf("  #%d %s\n", i+1, line)
	}
}
