package swift

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"swift/internal/burst"
	"swift/internal/dataplane"
	"swift/internal/encoding"
	"swift/internal/reroute"
	"swift/internal/rib"
	"swift/internal/topology"
)

// EngineState is one session engine's warm-restart image: the primary
// and alternate RIBs (by dense PathID against a pool image restored
// first), the burst detector's adaptive-threshold state, the computed
// plan, the compiled scheme and the provisioned two-stage FIB, plus the
// scalar bookkeeping that ties them together. Everything is in
// canonical order so the same engine state always exports identically.
//
// Deliberately not captured: the inference tracker's in-burst evidence
// and its withdrawn-path pins (a restored engine starts a burst's
// evidence fresh — the snapshot contract is steady state, and a
// mid-burst restore degrades to re-accumulating W(t) from the ongoing
// stream), the decision count, and the deferred/vetoed telemetry
// counters.
type EngineState struct {
	Table rib.TableImage
	Alts  []AltState

	History  burst.HistoryImage
	Detector burst.DetectorImage

	Plan   *reroute.PlanImage
	Scheme *encoding.SchemeImage
	FIB    dataplane.FIBImage

	ProvisionSig  uint64
	HaveProvision bool

	LastWithdrawal time.Duration
	BurstStartAt   time.Duration

	RerouteActive bool
	OwnLinks      []topology.Link
	ExtActive     bool
	ExtLinks      []topology.Link
	ExtEpoch      uint64
}

// AltState is one alternate-neighbor RIB.
type AltState struct {
	Neighbor uint32
	Table    rib.TableImage
}

// ExportState captures the engine. Like every engine accessor it must
// run on (or synchronized with) the applying goroutine.
func (e *Engine) ExportState() EngineState {
	st := EngineState{
		Table:          e.table.Export(),
		History:        e.history.Export(),
		Detector:       e.detector.Export(),
		FIB:            e.fib.Export(),
		ProvisionSig:   e.provisionSig,
		HaveProvision:  e.haveProvision,
		LastWithdrawal: e.lastWithdrawal,
		BurstStartAt:   e.burstStartAt,
		RerouteActive:  e.rerouteActive,
		OwnLinks:       append([]topology.Link(nil), e.ownLinks...),
		ExtActive:      e.extActive,
		ExtLinks:       append([]topology.Link(nil), e.extLinks...),
		ExtEpoch:       e.extEpoch,
	}
	for n, t := range e.alts {
		st.Alts = append(st.Alts, AltState{Neighbor: n, Table: t.Export()})
	}
	slices.SortFunc(st.Alts, func(a, b AltState) int { return cmp.Compare(a.Neighbor, b.Neighbor) })
	if e.plan != nil {
		img := e.plan.Export()
		st.Plan = &img
	}
	if e.scheme != nil {
		img := e.scheme.Export()
		st.Scheme = &img
	}
	return st
}

// RestoreState loads st into a freshly constructed engine (New with the
// same Config, its pool already inside a restore window — Pool.Restore
// ran, PruneUnreferenced pending). Route replay takes the table's path
// references exactly like live announcements, then the tracker is reset
// to discard the link-dirty noise the replay generated; scheme, plan
// and FIB load from their images without recompiling anything.
func (e *Engine) RestoreState(st EngineState) error {
	if e.table.Len() != 0 || len(e.alts) != 0 || e.haveProvision || e.decisions != 0 {
		return fmt.Errorf("swift: restore into a used engine")
	}
	if err := e.table.RestoreRoutes(st.Table); err != nil {
		return err
	}
	for i, a := range st.Alts {
		if i > 0 && a.Neighbor <= st.Alts[i-1].Neighbor {
			return fmt.Errorf("swift: restore: alternate neighbors not ascending at %d", a.Neighbor)
		}
		t := rib.NewWithPool(e.cfg.LocalAS, e.cfg.Pool)
		if err := t.RestoreRoutes(a.Table); err != nil {
			return fmt.Errorf("swift: restore alternate %d: %w", a.Neighbor, err)
		}
		e.alts[a.Neighbor] = t
	}
	// Route replay fired the table's link observer into the tracker;
	// none of that is burst evidence. Reset drops it without touching
	// the tables.
	e.tracker.Reset()
	if err := e.history.Restore(st.History); err != nil {
		return err
	}
	if err := e.detector.Restore(st.Detector); err != nil {
		return err
	}
	if st.Plan != nil {
		plan, err := reroute.RestorePlan(*st.Plan)
		if err != nil {
			return err
		}
		e.plan = plan
	}
	if st.Scheme != nil {
		scheme, err := encoding.RestoreScheme(*st.Scheme)
		if err != nil {
			return err
		}
		if scheme.Stats().TaggedPrefixes != len(st.Scheme.Tags) {
			return fmt.Errorf("swift: restore: scheme tag count mismatch")
		}
		e.scheme = scheme
	}
	fib, err := dataplane.Restore(dataplane.Config{RuleUpdateCost: e.cfg.RuleUpdateCost}, st.FIB)
	if err != nil {
		return err
	}
	e.fib = fib
	e.provisionSig = st.ProvisionSig
	e.haveProvision = st.HaveProvision
	e.lastWithdrawal = st.LastWithdrawal
	e.burstStartAt = st.BurstStartAt
	e.rerouteActive = st.RerouteActive
	e.ownLinks = append(e.ownLinks[:0], st.OwnLinks...)
	e.extActive = st.ExtActive
	e.extLinks = append(e.extLinks[:0], st.ExtLinks...)
	e.extEpoch = st.ExtEpoch
	return nil
}
