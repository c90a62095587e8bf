package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Evaluation modes: per-peer is classic SWIFT (every session infers and
// acts alone); fused shares one evidence aggregator across the fleet.
const (
	ModePerPeer = "per-peer"
	ModeFused   = "fused"
)

// PeerReport is one session's packet-level outcome: the loss a SWIFTED
// router and a vanilla router suffer on the same event stream, plus the
// prediction quality of the accepted inferences against ground truth.
type PeerReport struct {
	// Peer is the session key ("AS<n>/<bgpid>") and Neighbor its AS.
	Peer     string `json:"peer"`
	Neighbor uint32 `json:"neighbor"`

	// Flows is the evaluated synthetic flow count; FlowsAffected how
	// many lost at least one packet under the vanilla router.
	Flows         int `json:"flows"`
	FlowsAffected int `json:"flows_affected"`
	// Ticks is the number of virtual-time steps scored; PacketsSent the
	// per-run offered load (Flows x Ticks).
	Ticks       int   `json:"ticks"`
	PacketsSent int64 `json:"packets_sent"`

	// SwiftLost / BGPLost count packets blackholed with SWIFT enabled /
	// disabled. SwiftRestore / BGPRestore are the virtual times the last
	// lost packet was observed (0 = no loss; the horizon when loss never
	// stopped).
	SwiftLost    int64         `json:"swift_lost"`
	BGPLost      int64         `json:"bgp_lost"`
	SwiftRestore time.Duration `json:"swift_restore_ns"`
	BGPRestore   time.Duration `json:"bgp_restore_ns"`

	// Decisions counts accepted inferences; Withdrawn the ground-truth
	// positives (prefixes withdrawn on the session); Predicted the union
	// of prefixes the decisions diverted. TP/FP/FN decompose Predicted
	// against ground truth; FPR is FP over the session's unaffected
	// prefixes and FNR is FN over Withdrawn.
	Decisions int `json:"decisions"`
	// External counts fused-verdict pre-triggers applied to the session
	// and Vetoed its own inferences the fusion gate deferred; both are
	// zero (and omitted) in per-peer mode.
	External  int     `json:"external_decisions,omitempty"`
	Vetoed    int     `json:"vetoed,omitempty"`
	Withdrawn int     `json:"withdrawn"`
	Predicted int     `json:"predicted"`
	TP        int     `json:"tp"`
	FP        int     `json:"fp"`
	FN        int     `json:"fn"`
	FPR       float64 `json:"fpr"`
	FNR       float64 `json:"fnr"`
}

// Report is one evaluated scenario.
type Report struct {
	Name   string `json:"name"`
	Mode   string `json:"mode,omitempty"`
	Seed   int64  `json:"seed"`
	Remote bool   `json:"remote"`
	// Failure describes the injected fault ("link (5,6)" / "as 6").
	Failure string `json:"failure"`
	// Topology summary.
	ASes     int `json:"ases"`
	Links    int `json:"links"`
	Prefixes int `json:"prefixes"`
	Sessions int `json:"sessions"`
	Events   int `json:"events"`

	Peers []PeerReport `json:"peers"`

	// Aggregates over every session.
	PacketsSent int64 `json:"packets_sent"`
	SwiftLost   int64 `json:"swift_lost"`
	BGPLost     int64 `json:"bgp_lost"`
}

// aggregate folds the per-peer counters into the scenario totals.
func (r *Report) aggregate() {
	for _, p := range r.Peers {
		r.PacketsSent += p.PacketsSent
		r.SwiftLost += p.SwiftLost
		r.BGPLost += p.BGPLost
	}
}

// MatrixReport is the deterministic output of a matrix run: same matrix
// name and seed, byte-identical JSON.
type MatrixReport struct {
	Matrix    string    `json:"matrix"`
	Mode      string    `json:"mode,omitempty"`
	Seed      int64     `json:"seed"`
	Scenarios []*Report `json:"scenarios"`

	// Totals over every scenario, and over the remote-failure subset —
	// the paper's headline comparison.
	PacketsSent     int64 `json:"packets_sent"`
	SwiftLost       int64 `json:"swift_lost"`
	BGPLost         int64 `json:"bgp_lost"`
	RemoteScenarios int   `json:"remote_scenarios"`
	RemoteSwiftLost int64 `json:"remote_swift_lost"`
	RemoteBGPLost   int64 `json:"remote_bgp_lost"`
	// RemoteSwiftWins counts remote scenarios where SWIFT lost strictly
	// fewer packets than the vanilla router.
	RemoteSwiftWins int `json:"remote_swift_wins"`
}

// aggregate folds the per-scenario reports into the matrix totals.
func (m *MatrixReport) aggregate() {
	for _, r := range m.Scenarios {
		m.PacketsSent += r.PacketsSent
		m.SwiftLost += r.SwiftLost
		m.BGPLost += r.BGPLost
		if r.Remote {
			m.RemoteScenarios++
			m.RemoteSwiftLost += r.SwiftLost
			m.RemoteBGPLost += r.BGPLost
			if r.SwiftLost < r.BGPLost {
				m.RemoteSwiftWins++
			}
		}
	}
}

// JSON renders the report with stable formatting (the determinism
// contract: same matrix, same seed, byte-identical output).
func (m *MatrixReport) JSON() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// RenderScenarioMatrix renders a matrix report as the experiment
// tables do: one row per scenario plus the aggregate footer.
func RenderScenarioMatrix(rep *MatrixReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario matrix %q (seed %d): %d scenarios\n", rep.Matrix, rep.Seed, len(rep.Scenarios))
	fmt.Fprintf(&b, "%-26s %-20s %9s %10s %10s %8s\n", "scenario", "failure", "packets", "swift-lost", "bgp-lost", "saved")
	for _, r := range rep.Scenarios {
		saved := "-"
		if r.BGPLost > 0 {
			saved = fmt.Sprintf("%.1f%%", 100*float64(r.BGPLost-r.SwiftLost)/float64(r.BGPLost))
		}
		fmt.Fprintf(&b, "%-26s %-20s %9d %10d %10d %8s\n",
			r.Name, r.Failure, r.PacketsSent, r.SwiftLost, r.BGPLost, saved)
	}
	fmt.Fprintf(&b, "total: %d packets, swift lost %d, vanilla lost %d; remote failures: %d/%d strictly better with SWIFT\n",
		rep.PacketsSent, rep.SwiftLost, rep.BGPLost, rep.RemoteSwiftWins, rep.RemoteScenarios)
	return b.String()
}
