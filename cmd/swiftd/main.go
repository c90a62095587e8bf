// Command swiftd runs a SWIFT controller as a daemon (§7's deployment
// scheme). Both ingestion modes feed one engine fleet — a SWIFT engine
// per session, under the same telemetry, ops plane and metric families
// — and report every inference and reroute it performs.
//
// eBGP mode maintains one live session over TCP and runs it as a
// one-peer fleet. Listen for one passive session (the protected
// router's primary peer dials in):
//
//	swiftd -local-as 65001 -router-id 1.1.1.1 -listen :1790 -primary-as 65010
//
// Or dial the peer actively:
//
//	swiftd -local-as 65001 -router-id 1.1.1.1 -dial 192.0.2.1:179 -primary-as 65010
//
// BMP mode (RFC 7854) accepts monitored-router connections and runs
// one engine per monitored peer — the multi-session deployment that
// watches every peer of the protected router at once:
//
//	swiftd -local-as 65001 -bmp-listen :11019
//
// Each peer's engine provisions from its initial table: the in-band
// dump a BMP router sends after Peer Up, or the eBGP peer's opening
// announcement flood. End-of-RIB or the -settle quiet period ends it.
// Alternates can be preloaded from a TABLE_DUMP_V2 MRT snapshot with
// -alternates-rib; the snapshot is loaded into every peer's engine.
//
// Either mode exposes an ops HTTP plane with -http (e.g. -http :8080):
// GET /metrics serves Prometheus text exposition, /healthz liveness,
// /peers per-peer status JSON, /bursts the burst trace ring, and
// /debug/pprof/ the Go profiler. Peers are labelled AS<asn>/<bgpid>.
// -metrics-interval controls the periodic stats log line (0 disables
// it) and -log-level filters the daemon log (debug, info, warn, error).
//
// In either mode -snapshot-dir enables warm restarts: the fleet is
// checkpointed to <dir>/fleet.snap on SIGUSR1, on POST /snapshot and on
// shutdown, and a start that finds a snapshot restores every peer's
// provisioned engine from it instead of waiting for routers or the
// eBGP peer to re-send their tables. /healthz reports whether the start
// was warm or cold. -fusion, also in either mode, shares one evidence
// aggregator across the fleet's engines.
//
// SIGINT/SIGTERM shut either mode down cleanly: the eBGP session closes
// with a CEASE notification or the BMP station closes its connections,
// the fleet drains, and the final status is printed before exit.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"swift/internal/bgpd"
	"swift/internal/bmp"
	"swift/internal/controller"
	"swift/internal/event"
	"swift/internal/fusion"
	"swift/internal/inference"
	"swift/internal/mrt"
	swiftengine "swift/internal/swift"
	"swift/internal/telemetry"
	"swift/internal/telemetry/logging"
	"swift/internal/telemetry/ops"
)

func main() {
	var (
		localAS    = flag.Uint("local-as", 65001, "local AS number")
		routerID   = flag.String("router-id", "10.0.0.1", "BGP identifier (IPv4)")
		listen     = flag.String("listen", "", "listen address for a passive eBGP session (e.g. :1790)")
		dial       = flag.String("dial", "", "peer address to dial an eBGP session actively")
		bmpListen  = flag.String("bmp-listen", "", "listen address for BMP monitored routers (e.g. :11019)")
		primaryAS  = flag.Uint("primary-as", 0, "eBGP mode: exit unless the session's peer AS is this one (0 = accept any; the engine's primary neighbor is always the peer's AS)")
		altRIB     = flag.String("alternates-rib", "", "MRT TABLE_DUMP_V2 file with alternate routes")
		altAS      = flag.Uint("alternate-as", 0, "neighbor AS owning the alternate routes")
		settle     = flag.Duration("settle", event.DefaultTableSettle, "quiet period ending a table transfer")
		httpAddr   = flag.String("http", "", "ops HTTP listen address (e.g. :8080; empty disables)")
		metricsInt = flag.Duration("metrics-interval", 10*time.Second, "periodic stats log interval (0 disables)")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		ringSize   = flag.Int("burst-ring", 256, "burst trace ring capacity (records kept for /bursts)")
		snapDir    = flag.String("snapshot-dir", "", "directory for warm-restart snapshots: restore on start, checkpoint on SIGUSR1, POST /snapshot and shutdown")
		fused      = flag.Bool("fusion", false, "enable fleet-level evidence fusion across the monitored sessions")
		fusionK    = flag.Int("fusion-k", 0, "fusion: peers whose corroborating evidence confirms a link (0 = default)")
		fusionThr  = flag.Float64("fusion-threshold", 0, "fusion: fused Fit-Score a link must reach to be confirmed (0 = default)")
	)
	flag.Parse()

	lvl, err := logging.ParseLevel(*logLevel)
	if err != nil {
		logging.New(os.Stderr, logging.Info).Fatalf("%v", err)
	}
	logger := logging.New(os.Stderr, lvl)

	modes := 0
	for _, m := range []string{*listen, *dial, *bmpListen} {
		if m != "" {
			modes++
		}
	}
	if modes != 1 {
		logger.Fatalf("exactly one of -listen, -dial or -bmp-listen is required")
	}

	var alternates []mrt.RIBRecord
	if *altRIB != "" {
		if *altAS == 0 {
			logger.Fatalf("-alternates-rib requires -alternate-as")
		}
		var err error
		alternates, err = loadRIB(*altRIB)
		if err != nil {
			logger.Fatalf("loading alternates: %v", err)
		}
		logger.Infof("loaded %d alternate RIB records from %s", len(alternates), *altRIB)
	}

	// Graceful shutdown on SIGINT/SIGTERM: both modes get a signal
	// channel and finish their writes instead of dying mid-stream.
	// With -snapshot-dir, SIGUSR1 additionally checkpoints the fleet
	// without shutting down.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if *snapDir != "" {
		signal.Notify(sigs, syscall.SIGUSR1)
	}

	d := daemon{
		logger:   logger,
		registry: telemetry.NewRegistry(),
		ring:     telemetry.NewBurstRing(*ringSize),
		httpAddr: *httpAddr,
		interval: *metricsInt,
		snapDir:  *snapDir,
	}
	if *fused {
		d.fusion = &fusion.Config{K: *fusionK, FuseThreshold: *fusionThr}
	}
	d.fleet, d.restoreStatus = d.newFleet(uint32(*localAS), alternates, uint32(*altAS))
	if *bmpListen != "" {
		d.runBMP(*bmpListen, *settle, sigs)
		return
	}
	d.runBGP(*listen, *dial, uint32(*localAS), parseID(logger, *routerID), uint32(*primaryAS), *settle, sigs)
}

// daemon carries the telemetry spine shared by both ingestion modes.
type daemon struct {
	logger   *logging.Logger
	registry *telemetry.Registry
	ring     *telemetry.BurstRing
	httpAddr string
	interval time.Duration
	// fusion, when set, shares one evidence aggregator across the
	// fleet's engines (-fusion; nil runs classic per-peer SWIFT).
	fusion *fusion.Config
	// snapDir, when set, holds the warm-restart snapshot.
	snapDir string

	// fleet is the engine fleet both modes feed; restoreStatus is its
	// /healthz line.
	fleet         *controller.Fleet
	restoreStatus string
}

// serveOps starts the ops HTTP listener when -http was given, over the
// fleet and, in BMP mode, the station. The server dies with the
// process; nothing needs a graceful drain.
func (d *daemon) serveOps(station *bmp.Station) {
	if d.httpAddr == "" {
		return
	}
	cfg := ops.Config{Registry: d.registry, Ring: d.ring, Fleet: d.fleet, Station: station}
	if d.snapDir != "" {
		cfg.Snapshot = d.checkpoint
		cfg.RestoreStatus = func() string { return d.restoreStatus }
	}
	handler := ops.NewHandler(cfg)
	go func() {
		d.logger.Infof("ops HTTP listening on %s", d.httpAddr)
		if err := http.ListenAndServe(d.httpAddr, handler); err != nil {
			d.logger.Errorf("ops http: %v", err)
		}
	}()
}

// metricsC returns the periodic stats-log channel, nil (blocks forever
// in select) when -metrics-interval is 0.
func (d *daemon) metricsC() (<-chan time.Time, func()) {
	if d.interval <= 0 {
		return nil, func() {}
	}
	t := time.NewTicker(d.interval)
	return t.C, t.Stop
}

// snapPath is the warm-restart snapshot inside -snapshot-dir.
func (d *daemon) snapPath() string { return filepath.Join(d.snapDir, "fleet.snap") }

// checkpoint writes the fleet snapshot to a temp file, syncs it to disk
// and renames it over the last one, so neither a kill nor a power loss
// mid-checkpoint leaves a torn fleet.snap: a failed checkpoint leaves
// the previous one as it was. SIGUSR1, POST /snapshot and shutdown all
// funnel through it. It needs -snapshot-dir.
func (d *daemon) checkpoint() error {
	tmp, err := os.CreateTemp(d.snapDir, "fleet.snap.tmp*")
	if err != nil {
		return err
	}
	err = d.fleet.Snapshot(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), d.snapPath())
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// checkpointOn checkpoints the fleet if sig is SIGUSR1, which only
// reaches the daemon with -snapshot-dir, and reports whether it was.
func (d *daemon) checkpointOn(sig os.Signal) bool {
	if sig != syscall.SIGUSR1 {
		return false
	}
	if err := d.checkpoint(); err != nil {
		d.logger.Warnf("snapshot checkpoint: %v", err)
	} else {
		d.logger.Infof("snapshot checkpointed to %s", d.snapPath())
	}
	return true
}

// newFleet builds the instrumented engine fleet both modes feed: the
// Observer hooks push every burst, decision and fallback into the log,
// and every new peer is preloaded with the alternates. With
// -snapshot-dir a snapshot restores the provisioned fleet; any failure
// falls back to a cold start. The second result is the /healthz line.
func (d *daemon) newFleet(localAS uint32, alternates []mrt.RIBRecord, altAS uint32) (*controller.Fleet, string) {
	logger := d.logger
	ft := controller.NewFleetTelemetry(d.registry, d.ring)
	cfg := ft.Instrument(controller.FleetConfig{
		Fusion: d.fusion,
		// PrimaryNeighbor stays zero: the fleet makes it each peer's AS.
		Engine: func(controller.PeerKey) swiftengine.Config {
			return swiftengine.Config{LocalAS: localAS, Inference: inference.Default()}
		},
		Observer: controller.LoggingFleetObserver(logger.Infof),
		OnPeer: func(p *controller.FleetPeer) {
			for _, rec := range alternates {
				for _, e := range rec.Entries {
					p.LearnAlternate(altAS, rec.Prefix, e.Attrs.ASPath)
				}
			}
		},
		Logf: logger.Debugf,
	})

	const cold = "restore: cold start (no snapshot)"
	if d.snapDir == "" {
		return controller.NewFleet(cfg), cold
	}
	snapPath := d.snapPath()
	// A kill mid-checkpoint leaves its temp file behind; fleet.snap is
	// still the last complete checkpoint.
	stray, _ := filepath.Glob(snapPath + ".tmp*")
	for _, name := range stray {
		if err := os.Remove(name); err != nil {
			logger.Warnf("removing stray checkpoint %s: %v", name, err)
		}
	}
	file, err := os.Open(snapPath)
	if os.IsNotExist(err) {
		return controller.NewFleet(cfg), cold
	}
	if err != nil {
		logger.Warnf("snapshot %s unreadable, cold start: %v", snapPath, err)
		return controller.NewFleet(cfg), fmt.Sprintf("restore: failed (%v), cold start", err)
	}
	defer file.Close()
	start := time.Now()
	fleet, err := controller.RestoreFleet(file, cfg)
	if err != nil {
		logger.Warnf("snapshot restore from %s failed, cold start: %v", snapPath, err)
		return controller.NewFleet(cfg), fmt.Sprintf("restore: failed (%v), cold start", err)
	}
	took := time.Since(start).Round(time.Millisecond)
	logger.Infof("restored %d peers from %s in %s", fleet.Len(), snapPath, took)
	return fleet, fmt.Sprintf("restore: warm, %d peers from %s in %s", fleet.Len(), snapPath, took)
}

// runBMP serves a BMP station into the fleet until a signal or a
// listener failure.
func (d *daemon) runBMP(addr string, settle time.Duration, sigs <-chan os.Signal) {
	logger, fleet := d.logger, d.fleet
	station := bmp.NewStation(bmp.StationConfig{
		Sink:        fleet,
		TableSettle: settle,
		Logf:        logger.Infof,
	})
	d.serveOps(station)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	logger.Infof("BMP station listening on %s", addr)

	ended := make(chan error, 1)
	go func() {
		if err := station.Serve(ln); err != nil {
			ended <- fmt.Errorf("station: %w", err)
		}
	}()
	d.serve(sigs, ended, station.Close, func() string {
		m := station.Metrics()
		return fmt.Sprintf("conns=%d msgs=%d rm=%d bytes=%d decode_errs=%d | %s",
			m.Conns, m.Messages, m.RouteMonitoring, m.Bytes, m.DecodeErrors, fleet.Status())
	})
}

// runBGP establishes one eBGP session and runs it as a one-peer fleet,
// through a bgpd.Source, until a signal or the session's end.
func (d *daemon) runBGP(listen, dial string, localAS, routerID, primaryAS uint32, settle time.Duration, sigs <-chan os.Signal) {
	logger, fleet := d.logger, d.fleet
	d.serveOps(nil)

	var sess *bgpd.Session
	var err error
	bcfg := bgpd.Config{
		LocalAS:  localAS,
		RouterID: routerID,
		Logf:     logger.Debugf,
	}
	if listen != "" {
		l, lerr := net.Listen("tcp", listen)
		if lerr != nil {
			logger.Fatalf("%v", lerr)
		}
		logger.Infof("listening on %s", listen)
		// The watcher owns the decision of whether a signal interrupted
		// the wait; reading its verdict (rather than polling a channel)
		// makes the signal-vs-established race deterministic — a
		// consumed signal is always honored, never dropped.
		established := make(chan struct{})
		tookSignal := make(chan bool, 1)
		go func() {
			for {
				select {
				case sig := <-sigs:
					if d.checkpointOn(sig) {
						continue
					}
					logger.Infof("%v: aborting before session establishment", sig)
					l.Close()
					tookSignal <- true
				case <-established:
					tookSignal <- false
				}
				return
			}
		}()
		sess, err = bgpd.Accept(l, bcfg)
		close(established)
		if <-tookSignal {
			if err == nil {
				sess.Close()
			}
			return
		}
		if err != nil {
			logger.Fatalf("%v", err)
		}
	} else {
		logger.Infof("dialing %s", dial)
		// Dial on a goroutine so a signal can interrupt the connect /
		// handshake instead of queuing behind it.
		type dialResult struct {
			sess *bgpd.Session
			err  error
		}
		dialed := make(chan dialResult, 1)
		go func() {
			s, derr := bgpd.Dial(dial, bcfg)
			dialed <- dialResult{s, derr}
		}()
		for sess == nil {
			select {
			case sig := <-sigs:
				if d.checkpointOn(sig) {
					continue
				}
				logger.Infof("%v: aborting dial", sig)
				return
			case r := <-dialed:
				if r.err != nil {
					logger.Fatalf("%v", r.err)
				}
				sess = r.sess
			}
		}
	}
	if primaryAS != 0 && sess.PeerAS() != primaryAS {
		logger.Fatalf("peer AS %d, expected %d", sess.PeerAS(), primaryAS)
	}
	logger.Infof("session established with AS%d", sess.PeerAS())

	src := &bgpd.Source{
		Peer:        controller.PeerKey{AS: sess.PeerAS(), BGPID: sess.PeerID()},
		Updates:     sess.Updates(),
		TableSettle: settle,
		Logf:        logger.Infof,
	}
	ended := make(chan error, 1)
	go func() {
		err := src.Run(fleet)
		if err == nil {
			err = sess.Err()
		}
		ended <- err
	}()
	// Closing the session CEASEs it and closes its UPDATE stream, which
	// ends the source once everything received has been handed over.
	stop := func() error {
		err := sess.Close()
		<-ended
		return err
	}
	d.serve(sigs, ended, stop, fleet.Status)
}

// serve is the loop both modes end in: periodic stats until a signal
// or the front-end's own end, then the fleet drains and its final
// status is printed. stop closes the front-end and waits for it to
// drain. With -snapshot-dir the fleet is checkpointed on SIGUSR1 and
// after stop.
func (d *daemon) serve(sigs <-chan os.Signal, ended <-chan error, stop func() error, stats func() string) {
	logger, fleet := d.logger, d.fleet
	metricsC, stopMetrics := d.metricsC()
	defer stopMetrics()
	for {
		select {
		case sig := <-sigs:
			if d.checkpointOn(sig) {
				continue
			}
			logger.Infof("%v: shutting down", sig)
			if err := stop(); err != nil {
				logger.Warnf("shutdown: %v", err)
			}
			if d.snapDir != "" {
				// The front-end has drained, so this captures the fleet's
				// final state; the next start restores it.
				if err := d.checkpoint(); err != nil {
					logger.Warnf("shutdown snapshot: %v", err)
				} else {
					logger.Infof("shutdown snapshot written to %s", d.snapPath())
				}
			}
			fleet.Close()
			logger.Infof("final: %s", fleet.Status())
			return
		case err := <-ended:
			fleet.Close()
			logger.Infof("final: %s", fleet.Status())
			if err != nil {
				logger.Fatalf("%v", err)
			}
			return
		case <-metricsC:
			logger.Infof("metrics: %s", stats())
		}
	}
}

func parseID(logger *logging.Logger, s string) uint32 {
	ip := net.ParseIP(s).To4()
	if ip == nil {
		logger.Fatalf("bad router id %q", s)
	}
	return uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
}

// loadRIB reads every RIB_IPV4_UNICAST record of a TABLE_DUMP_V2 file.
func loadRIB(path string) ([]mrt.RIBRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []mrt.RIBRecord
	err = mrt.WalkRIBIPv4(f, func(rr *mrt.RIBRecord) error {
		out = append(out, *rr)
		return nil
	})
	return out, err
}
