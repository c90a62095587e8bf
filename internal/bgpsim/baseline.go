package bgpsim

import (
	"math/rand"
	"sort"
	"time"

	"swift/internal/topology"
)

// Baseline caches the pre-failure routing of a network plus an inverted
// index from AS link to the origins whose routing trees cross it. It
// makes failure replay proportional to the failure's blast radius
// instead of the whole table — the trace synthesizer replays hundreds
// of failures against 213 sessions, which is intractable with full
// re-solves.
type Baseline struct {
	net   *Network
	Sols  map[uint32]*OriginSolution
	usage map[topology.Link]map[uint32]struct{}
}

// Baseline solves every origin once and builds the link-usage index.
func (n *Network) Baseline() *Baseline {
	b := &Baseline{
		net:   n,
		Sols:  n.Solve(n.Graph),
		usage: make(map[topology.Link]map[uint32]struct{}),
	}
	for origin, sol := range b.Sols {
		seen := make(map[topology.Link]struct{})
		for as, r := range sol.best {
			prev := as
			for _, hop := range r.Path {
				if hop != prev {
					seen[topology.MakeLink(prev, hop)] = struct{}{}
				}
				prev = hop
			}
		}
		for l := range seen {
			set := b.usage[l]
			if set == nil {
				set = make(map[uint32]struct{})
				b.usage[l] = set
			}
			set[origin] = struct{}{}
		}
	}
	return b
}

// AffectedOrigins returns the origins whose routing trees cross any of
// the links, ascending. Removing a link can only force ASes off it, so
// unaffected origins keep their routes exactly (the solver is
// deterministic and removal-monotone).
func (b *Baseline) AffectedOrigins(links ...topology.Link) []uint32 {
	set := make(map[uint32]struct{})
	for _, l := range links {
		for o := range b.usage[l] {
			set[o] = struct{}{}
		}
	}
	out := make([]uint32, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FailureDelta is the re-solved routing for the origins a failure
// touches; origins outside Affected keep their baseline routes.
type FailureDelta struct {
	Links    []topology.Link
	After    *topology.Graph
	Affected []uint32
	Sols     map[uint32]*OriginSolution
}

// FailLink re-solves the affected origins with l removed.
func (b *Baseline) FailLink(l topology.Link) *FailureDelta {
	after := b.net.Graph.WithoutLink(l.A, l.B)
	d := &FailureDelta{
		Links:    []topology.Link{l},
		After:    after,
		Affected: b.AffectedOrigins(l),
		Sols:     make(map[uint32]*OriginSolution),
	}
	for _, o := range d.Affected {
		d.Sols[o] = SolveOrigin(after, b.net.Policy, o)
	}
	return d
}

// FailAS re-solves for a whole-AS outage.
func (b *Baseline) FailAS(dead uint32) *FailureDelta {
	var links []topology.Link
	for _, nb := range b.net.Graph.Neighbors(dead) {
		links = append(links, topology.MakeLink(dead, nb.AS))
	}
	after := b.net.Graph.WithoutAS(dead)
	d := &FailureDelta{
		Links:    links,
		After:    after,
		Affected: b.AffectedOrigins(links...),
		Sols:     make(map[uint32]*OriginSolution),
	}
	for _, o := range d.Affected {
		// The dead AS itself is solved on the after-graph too: it no
		// longer exists there, so it exports nothing anywhere.
		d.Sols[o] = SolveOrigin(after, b.net.Policy, o)
	}
	return d
}

// afterSol returns the post-failure solution for an origin.
func (d *FailureDelta) afterSol(b *Baseline, origin uint32) (*OriginSolution, bool) {
	if s, ok := d.Sols[origin]; ok {
		return s, true
	}
	s, ok := b.Sols[origin]
	return s, ok
}

// SessionChange describes what one session observes for one origin.
type SessionChange struct {
	Origin   uint32
	Withdraw bool
	NewPath  []uint32
	Dist     int
}

// SessionChanges diffs the exports of neighbor→vantage across the
// failure, touching only affected origins.
func (d *FailureDelta) SessionChanges(b *Baseline, vantage, neighbor uint32) []SessionChange {
	var out []SessionChange
	for _, origin := range d.Affected {
		if origin == vantage || origin == neighbor {
			continue
		}
		oldSol := b.Sols[origin]
		newSol, ok := d.afterSol(b, origin)
		oldR, oldOK := oldSol.ExportTo(b.net.Graph, b.net.Policy, neighbor, vantage)
		var newR Route
		newOK := false
		if ok && newSol != nil {
			newR, newOK = newSol.ExportTo(d.After, b.net.Policy, neighbor, vantage)
		}
		switch {
		case oldOK && !newOK:
			out = append(out, SessionChange{
				Origin:   origin,
				Withdraw: true,
				Dist:     failureDistance(oldR.Path, d.Links),
			})
		case oldOK && newOK && !samePath(oldR.Path, newR.Path):
			out = append(out, SessionChange{
				Origin:  origin,
				NewPath: newR.Path,
				Dist:    failureDistance(oldR.Path, d.Links),
			})
		case !oldOK && newOK:
			out = append(out, SessionChange{Origin: origin, NewPath: newR.Path, Dist: 1})
		}
	}
	return out
}

// BurstAt expands the session diff into a timestamped event stream,
// exactly like ReplayLinkFailure but using the cached baseline.
func (b *Baseline) BurstAt(d *FailureDelta, vantage, neighbor uint32, tm Timing) *Burst {
	changes := d.SessionChanges(b, vantage, neighbor)
	burst := &Burst{Vantage: vantage, Neighbor: neighbor, FailedLinks: d.Links}
	for _, c := range changes {
		if c.Withdraw {
			burst.WithdrawnOrigins = append(burst.WithdrawnOrigins, c.Origin)
		}
	}
	burst.Events, burst.Size = expandEvents(b.net, changes, tm)
	return burst
}

// BurstSizeAt returns just the withdrawal/announce counts the session
// would see — the cheap path for the Fig. 2 census, with no event
// expansion.
func (b *Baseline) BurstSizeAt(d *FailureDelta, vantage, neighbor uint32) (withdrawals, announces int) {
	for _, c := range d.SessionChanges(b, vantage, neighbor) {
		if c.Withdraw {
			withdrawals += b.net.Origins[c.Origin]
		} else {
			announces += b.net.Origins[c.Origin]
		}
	}
	return withdrawals, announces
}

// EstimateDuration models how long a burst of the given size takes to
// drain at the session under tm, without materializing events: the
// serialization time plus the expected tail extension. The formula
// matches expandEvents' construction in expectation.
func EstimateDuration(tm Timing, withdrawals, announces int) time.Duration {
	n := withdrawals + announces
	if n == 0 {
		return 0
	}
	serial := time.Duration(n) * tm.PerMsg
	// Reproduce expandEvents' burst-level tail gate (its first draw).
	tailProb := tm.TailProb
	if tm.TailBurstProb > 0 {
		rng := rand.New(rand.NewSource(tm.Seed))
		if rng.Float64() > tm.TailBurstProb {
			tailProb = 0
		}
	}
	// Tail messages land around TailScale later; the burst ends near
	// the max of the serialization clock and the late stragglers.
	tail := time.Duration(0)
	if tailProb > 0 && n > 20 {
		// Expected maximum of k ~ Exp(TailScale) stragglers ≈ H_k·scale.
		k := float64(n) * tailProb
		h := 0.0
		for i := 1; i <= int(k) && i < 64; i++ {
			h += 1.0 / float64(i)
		}
		if k >= 1 {
			tail = time.Duration(h * float64(tm.TailScale))
		}
	}
	if tail > serial {
		return tail
	}
	return serial
}
