// Package ops is swiftd's management-plane HTTP surface — the
// ndndpdk-svc-style service endpoint the ROADMAP calls for. One handler
// serves:
//
//	GET /metrics      Prometheus text exposition of the registry
//	GET /healthz      liveness (200 "ok", or 503 when the health
//	                  callback reports down)
//	GET /peers        per-peer fleet status as JSON
//	GET /bursts       the burst trace ring, newest first, as JSON
//	GET /fusion       fusion aggregator stats + current verdict as JSON
//	                  (when the fleet runs with fusion enabled)
//	GET /debug/pprof/ the standard Go profiler endpoints
//
// NewHandler also completes the scrape-side wiring: given a fleet it
// registers the fleet/pool/FIB collectors, and given a BMP station it
// bridges the station's ingestion counters into the registry — so a
// daemon builds its whole ops plane with one call.
package ops

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"time"

	"swift/internal/bmp"
	"swift/internal/controller"
	"swift/internal/fusion"
	"swift/internal/telemetry"
)

// Config assembles an ops handler. Registry is required; everything
// else is optional and gates its endpoint or wiring.
type Config struct {
	// Registry backs GET /metrics.
	Registry *telemetry.Registry
	// Ring backs GET /bursts (404 when nil).
	Ring *telemetry.BurstRing
	// Fleet, when set, is wired into the registry's scrape pass and
	// backs GET /peers.
	Fleet *controller.Fleet
	// Station, when set, has its ingestion counters exported under
	// swift_station_*.
	Station *bmp.Station
	// Snapshot, when set, backs POST /snapshot: it checkpoints the
	// fleet to durable storage and returns when the snapshot is on
	// disk (405 on GET, 404 when unset).
	Snapshot func() error
	// RestoreStatus, when set, reports how the process started (warm
	// restore vs cold start); its line is appended to the /healthz
	// body so orchestration can tell the difference.
	RestoreStatus func() string
}

// NewHandler wires the configured sources into the registry and returns
// the ops mux. Call it once per process (metric registration is
// idempotent only for identical schemas).
func NewHandler(cfg Config) http.Handler {
	if cfg.Registry == nil {
		panic("ops: Config.Registry is required")
	}
	if cfg.Fleet != nil {
		controller.RegisterFleetMetrics(cfg.Registry, cfg.Fleet)
	}
	if cfg.Station != nil {
		RegisterStationMetrics(cfg.Registry, cfg.Station)
	}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", cfg.Registry)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
		if cfg.RestoreStatus != nil {
			w.Write([]byte(cfg.RestoreStatus() + "\n"))
		}
	})
	if cfg.Snapshot != nil {
		mux.HandleFunc("POST /snapshot", func(w http.ResponseWriter, r *http.Request) {
			if err := cfg.Snapshot(); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Write([]byte("snapshot written\n"))
		})
	}
	if cfg.Fleet != nil {
		mux.HandleFunc("GET /peers", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, cfg.Fleet.PeerStatuses())
		})
	}
	if cfg.Ring != nil {
		mux.HandleFunc("GET /bursts", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, cfg.Ring.Snapshot())
		})
	}
	if cfg.Fleet != nil && cfg.Fleet.Fusion() != nil {
		agg := cfg.Fleet.Fusion()
		mux.HandleFunc("GET /fusion", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, fusionStatus(agg))
		})
	}
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// FusionStatus is the GET /fusion payload: the aggregator's counters
// plus the currently confirmed verdict, when one stands.
type FusionStatus struct {
	Peers          int            `json:"peers"`
	Bursting       int            `json:"bursting"`
	EvidenceEvents uint64         `json:"evidence_events"`
	Vetoes         uint64         `json:"vetoes"`
	VerdictLinks   int            `json:"verdict_links"`
	Epoch          uint64         `json:"epoch"`
	Verdict        *FusionVerdict `json:"verdict,omitempty"`
}

// FusionVerdict is the JSON shape of a confirmed fleet verdict.
type FusionVerdict struct {
	Links      []string      `json:"links"`
	Predicted  int           `json:"predicted_prefixes"`
	FS         float64       `json:"fit_score"`
	At         time.Duration `json:"at_ns"`
	Supporters int           `json:"supporters"`
	Epoch      uint64        `json:"epoch"`
}

func fusionStatus(agg *fusion.Aggregator) FusionStatus {
	s := agg.Stats()
	st := FusionStatus{
		Peers:          s.Peers,
		Bursting:       s.Bursting,
		EvidenceEvents: s.EvidenceEvents,
		Vetoes:         s.Vetoes,
		VerdictLinks:   s.VerdictLinks,
		Epoch:          s.Epoch,
	}
	if v, ok := agg.Snapshot(0); ok {
		links := make([]string, len(v.Links))
		for i, l := range v.Links {
			links[i] = l.String()
		}
		st.Verdict = &FusionVerdict{
			Links:      links,
			Predicted:  len(v.Predicted),
			FS:         v.FS,
			At:         v.At,
			Supporters: v.Supporters,
			Epoch:      v.Epoch,
		}
	}
	return st
}

// writeJSON renders v indented; the payloads are operator-facing and
// small (peers, trace ring), so readability beats compactness.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// RegisterStationMetrics bridges a BMP station's ingestion counters
// into reg as scrape-time sampled families — the station's own atomics
// stay the single source of truth.
func RegisterStationMetrics(reg *telemetry.Registry, st *bmp.Station) {
	reg.GaugeFunc("swift_station_connections",
		"Live monitored-router connections.",
		func() float64 { return float64(st.Metrics().Conns) })
	reg.CounterFunc("swift_station_messages_total",
		"BMP messages ingested.",
		func() uint64 { return st.Metrics().Messages })
	reg.CounterFunc("swift_station_route_monitoring_total",
		"Route Monitoring messages ingested.",
		func() uint64 { return st.Metrics().RouteMonitoring })
	reg.CounterFunc("swift_station_peer_ups_total",
		"Peer Up notifications ingested.",
		func() uint64 { return st.Metrics().PeerUps })
	reg.CounterFunc("swift_station_peer_downs_total",
		"Peer Down notifications ingested.",
		func() uint64 { return st.Metrics().PeerDowns })
	reg.CounterFunc("swift_station_stats_reports_total",
		"Stats Report messages ingested.",
		func() uint64 { return st.Metrics().StatsReports })
	reg.CounterFunc("swift_station_bytes_total",
		"Wire bytes read off router connections.",
		func() uint64 { return st.Metrics().Bytes })
	reg.CounterFunc("swift_station_decode_errors_total",
		"Connections dropped on framing or decode failures.",
		func() uint64 { return st.Metrics().DecodeErrors })
}
