// Package experiments regenerates the tables and figures of the SWIFT
// paper's evaluation (§2, §6, §7) for cmd/swift-bench. Each experiment
// returns a structured result plus a text rendering shaped like the
// paper's presentation. Table 1 and Fig. 9 score data-plane downtime
// with the convergence model in downtime.go; the packet-level scenario
// matrix that cmd/swift-eval runs lives in internal/scenario.
package experiments

import (
	"sync"
	"time"

	"swift/internal/bgpsim"
	"swift/internal/inference"
	"swift/internal/netaddr"
	"swift/internal/reroute"
	"swift/internal/rib"
	"swift/internal/topology"
	"swift/internal/trace"
)

// BurstEval is the per-burst outcome of replaying one burst through the
// inference (and optionally encoding) pipeline.
type BurstEval struct {
	// Size is the burst's withdrawal count; Duration its span.
	Size     int
	Duration time.Duration

	// Missed reports that the plausibility gate never accepted an
	// inference for this burst.
	Missed bool

	// First accepted inference:
	Links      []topology.Link
	InferredAt time.Duration
	Received   int

	// Fig. 6 metrics (positives = all withdrawals of the burst).
	TPR, FPR float64

	// Table 2 metrics (positives = withdrawals after the inference).
	CPR    float64
	CP, FP int

	// Learning times for Fig. 8: for every withdrawal, when SWIFT knew
	// (prediction time or arrival) and when BGP knew (arrival).
	SwiftLearn, BGPLearn []time.Duration

	// Predicted is the set the inference would reroute (active at
	// inference time); kept for the encoding evaluation.
	Predicted []netaddr.Prefix
	// RIBAtInference is the table snapshot used for encoding checks.
	RIBAtInference *rib.Table
}

// sessionState is the reusable per-session context: master RIB and the
// alternate tables of the vantage's other neighbors.
type sessionState struct {
	ds      *trace.Dataset
	session trace.Session
	master  *rib.Table
	alts    map[uint32]*rib.Table
	perOrig map[uint32][]uint32 // origin -> session path (for quick rebuilds)
}

// stateCache memoizes sessionState per (dataset, session): experiments
// share datasets and states are immutable after construction (bursts
// clone the master table).
var stateCache sync.Map // map[stateKey]*sessionState

type stateKey struct {
	ds *trace.Dataset
	s  trace.Session
}

// newSessionState expands a session's initial table once per dataset;
// individual bursts clone it.
func newSessionState(ds *trace.Dataset, s trace.Session) *sessionState {
	key := stateKey{ds: ds, s: s}
	if v, ok := stateCache.Load(key); ok {
		return v.(*sessionState)
	}
	st := buildSessionState(ds, s)
	stateCache.Store(key, st)
	return st
}

func buildSessionState(ds *trace.Dataset, s trace.Session) *sessionState {
	st := &sessionState{ds: ds, session: s, alts: make(map[uint32]*rib.Table)}
	st.master = rib.New(s.Vantage)
	st.perOrig = ds.SessionRIB(s)
	for origin, path := range st.perOrig {
		for i := 0; i < ds.Net.Origins[origin]; i++ {
			st.master.Announce(netaddr.PrefixFor(origin, i), path)
		}
	}
	for _, nb := range ds.Net.Graph.Neighbors(s.Vantage) {
		if nb.AS == s.Neighbor {
			continue
		}
		altByOrigin := ds.Net.SessionRIB(ds.Base.Sols, s.Vantage, nb.AS)
		alt := rib.New(s.Vantage)
		for origin, path := range altByOrigin {
			for i := 0; i < ds.Net.Origins[origin]; i++ {
				alt.Announce(netaddr.PrefixFor(origin, i), path)
			}
		}
		st.alts[nb.AS] = alt
	}
	return st
}

// evalBurst replays one burst against a fresh clone of the session
// table. keepRIB retains the inference-time table snapshot (needed by
// the encoding experiment); keepLearn retains per-withdrawal learning
// times (needed by Fig. 8).
func (st *sessionState) evalBurst(b *bgpsim.Burst, cfg inference.Config, keepRIB, keepLearn bool) BurstEval {
	table := st.master.Clone()
	startLen := table.Len()
	tracker := inference.NewTracker(cfg, table)
	// The working clone and the tracker's burst state hold references
	// into the session's shared path pool; return them when the burst
	// evaluation is done so a many-burst run doesn't pin every path it
	// ever withdrew. (The RIBAtInference snapshot, when kept, retains
	// its own references for the encoding experiment's lifetime.)
	defer func() {
		tracker.Reset()
		table.Release()
	}()

	ev := BurstEval{Size: b.Size, Duration: b.Duration(), Missed: true}

	trigger := cfg.TriggerEvery
	if trigger <= 0 {
		trigger = inference.Default().TriggerEvery
	}

	withdrawn := make(map[netaddr.Prefix]struct{}, b.Size)
	var wPrime map[netaddr.Prefix]struct{}
	predictedSet := make(map[netaddr.Prefix]struct{})
	lastTrigger := 0

	for _, e := range b.Events {
		switch e.Kind {
		case bgpsim.KindWithdraw:
			if keepLearn {
				ev.BGPLearn = append(ev.BGPLearn, e.At)
				if _, ok := predictedSet[e.Prefix]; ok && !ev.Missed {
					ev.SwiftLearn = append(ev.SwiftLearn, ev.InferredAt)
				} else {
					ev.SwiftLearn = append(ev.SwiftLearn, e.At)
				}
			}
			tracker.ObserveWithdraw(e.Prefix)
			withdrawn[e.Prefix] = struct{}{}
			if ev.Missed && tracker.Received()-lastTrigger >= trigger {
				lastTrigger = tracker.Received()
				res := tracker.Infer()
				if len(res.Links) == 0 || !res.Accepted {
					continue
				}
				ev.Missed = false
				ev.Links = res.Links
				ev.InferredAt = e.At
				ev.Received = res.Received
				ev.Predicted = tracker.PredictedPrefixes(res)
				for _, p := range ev.Predicted {
					predictedSet[p] = struct{}{}
				}
				wPrime = make(map[netaddr.Prefix]struct{}, len(ev.Predicted))
				for _, p := range ev.Predicted {
					wPrime[p] = struct{}{}
				}
				for _, p := range tracker.WithdrawnOn(res.Links) {
					wPrime[p] = struct{}{}
				}
				if keepRIB {
					ev.RIBAtInference = table.Clone()
				}
			}
		case bgpsim.KindAnnounce:
			tracker.ObserveAnnounce(e.Prefix, e.Path)
		}
	}

	if ev.Missed {
		return ev
	}

	// Fig. 6: positives = all withdrawn prefixes of the burst.
	var tp, fp int
	for p := range wPrime {
		if _, ok := withdrawn[p]; ok {
			tp++
		} else {
			fp++
		}
	}
	fn := len(withdrawn) - tp
	negatives := startLen - len(withdrawn)
	if tp+fn > 0 {
		ev.TPR = float64(tp) / float64(tp+fn)
	}
	if negatives > 0 {
		ev.FPR = float64(fp) / float64(negatives)
	}

	// Table 2: positives restricted to withdrawals after the inference.
	withdrawnAfter := 0
	cp := 0
	for _, e := range b.Events {
		if e.Kind != bgpsim.KindWithdraw || e.At <= ev.InferredAt {
			continue
		}
		withdrawnAfter++
		if _, ok := predictedSet[e.Prefix]; ok {
			cp++
		}
	}
	ev.CP = cp
	if withdrawnAfter > 0 {
		ev.CPR = float64(cp) / float64(withdrawnAfter)
	}
	fpPred := 0
	for p := range predictedSet {
		if _, ok := withdrawn[p]; !ok {
			fpPred++
		}
	}
	ev.FP = fpPred
	if negatives > 0 {
		ev.FPR = float64(fpPred) / float64(negatives)
	}
	return ev
}

// plan computes the reroute plan for the session's master table.
func (st *sessionState) plan(pol *reroute.Policy, depth int) *reroute.Plan {
	return reroute.Compute(st.session.Vantage, st.master, st.alts, pol, depth)
}
