// Package trace synthesizes the RouteViews/RIPE-RIS-like dataset the
// SWIFT evaluation runs on (§2.2, §6.1): a month of BGP activity over a
// synthetic Internet, observed from a couple hundred peering sessions.
// Failures of heavily-loaded links produce bursts whose sizes, arrival
// shapes and noise floor are calibrated against the statistics the
// paper reports for November 2016 (3,335 bursts across 213 sessions,
// 16% above 10k withdrawals, heavy tails, a 9-withdrawal 90th-percentile
// noise floor per 10 s window, and "popular" origins present in most
// large bursts).
//
// The substitution preserves what the algorithms consume: timestamped
// per-session streams of per-prefix withdrawals and announcements whose
// root cause is unknown to the consumer but known to the evaluator.
package trace

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"swift/internal/bgpsim"
	"swift/internal/topology"
)

// Config parameterizes a dataset.
type Config struct {
	// NumASes sizes the synthetic Internet (default 1,000).
	NumASes int
	// AvgDegree matches CAIDA's October 2016 value by default (8.4).
	AvgDegree float64
	// Sessions is the number of collector peering sessions (213 in the
	// paper's dataset).
	Sessions int
	// Days is the capture length (30 = the paper's month).
	Days int
	// Failures is the number of link/router outages over the capture.
	Failures int
	// MaxPrefixes caps the largest origin's table (power-law sizes).
	MaxPrefixes int
	// PopularASes marks the top-N origins by prefix count as "popular"
	// (the Umbrella-top-100 analog; 15 organizations in the paper).
	PopularASes int
	// ASFailureFraction is the share of outages that kill a whole AS
	// (multi-link failures) rather than a single link.
	ASFailureFraction float64
	// Timing shapes per-burst message arrival.
	Timing bgpsim.Timing
	// Seed drives all randomness.
	Seed int64
}

// Default returns a dataset shaped like the paper's, at a scale a
// laptop solves in seconds.
func Default(seed int64) Config {
	return Config{
		NumASes:           1000,
		AvgDegree:         8.4,
		Sessions:          213,
		Days:              30,
		Failures:          260,
		MaxPrefixes:       30000,
		PopularASes:       15,
		ASFailureFraction: 0.15,
		Timing:            bgpsim.DefaultTiming(seed),
		Seed:              seed,
	}
}

// Session is one collector peering: the stream is what Neighbor exports
// to Vantage.
type Session struct {
	Vantage  uint32
	Neighbor uint32
}

// Failure is one scheduled outage.
type Failure struct {
	At time.Duration // offset into the capture
	// Link is the failed link; for AS failures, DeadAS is set and Link
	// is one of its links.
	Link   topology.Link
	DeadAS uint32 // 0 for plain link failures
}

// Dataset is a fully materialized synthetic capture.
type Dataset struct {
	Cfg      Config
	Net      *bgpsim.Network
	Base     *bgpsim.Baseline
	Sessions []Session
	Failures []Failure
	popular  map[uint32]bool
	deltas   map[int]*bgpsim.FailureDelta // lazily computed per failure
	census   map[int][]BurstStat          // memoized Census results
	bursts   map[burstKey][]*bgpsim.Burst // memoized BurstsAt results
	rng      *rand.Rand
}

// Generate builds the dataset: topology, prefix counts, sessions and
// the failure schedule. The expensive per-failure re-solves happen
// lazily on first use and are cached.
func Generate(cfg Config) *Dataset {
	if cfg.NumASes == 0 {
		cfg = mergeDefaults(cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := topology.Generate(topology.GenConfig{
		NumASes:   cfg.NumASes,
		AvgDegree: cfg.AvgDegree,
		Seed:      cfg.Seed,
	})

	// Power-law prefix counts: count_i ~ MaxPrefixes / rank^0.8, with
	// a floor of 5. Popularity follows table size, like the handful of
	// hypergiant origins in the real table.
	ases := g.ASes()
	perm := rng.Perm(len(ases))
	origins := make(map[uint32]int, len(ases))
	popular := make(map[uint32]bool)
	for rank, idx := range perm {
		as := ases[idx]
		count := int(float64(cfg.MaxPrefixes) / math.Pow(float64(rank+1), 0.8))
		if count < 5 {
			count = 5
		}
		if count > 1<<20-1 {
			count = 1<<20 - 1
		}
		origins[as] = count
		if rank < cfg.PopularASes {
			popular[as] = true
		}
	}

	net := &bgpsim.Network{Graph: g, Policy: &bgpsim.Policy{}, Origins: origins}
	base := net.Baseline()

	ds := &Dataset{
		Cfg:     cfg,
		Net:     net,
		Base:    base,
		popular: popular,
		deltas:  make(map[int]*bgpsim.FailureDelta),
		census:  make(map[int][]BurstStat),
		bursts:  make(map[burstKey][]*bgpsim.Burst),
		rng:     rng,
	}
	ds.pickSessions(rng)
	ds.scheduleFailures(rng)
	return ds
}

func mergeDefaults(cfg Config) Config {
	d := Default(cfg.Seed)
	d.Seed = cfg.Seed
	return d
}

// pickSessions samples customer→provider edges as collector peerings:
// the provider side is the monitored peer (real collectors peer with
// transit routers).
func (ds *Dataset) pickSessions(rng *rand.Rand) {
	var candidates []Session
	for _, as := range ds.Net.Graph.ASes() {
		for _, nb := range ds.Net.Graph.Neighbors(as) {
			if nb.Rel == topology.RelProvider {
				candidates = append(candidates, Session{Vantage: as, Neighbor: nb.AS})
			}
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Vantage != candidates[j].Vantage {
			return candidates[i].Vantage < candidates[j].Vantage
		}
		return candidates[i].Neighbor < candidates[j].Neighbor
	})
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	n := ds.Cfg.Sessions
	if n > len(candidates) {
		n = len(candidates)
	}
	ds.Sessions = candidates[:n]
}

// scheduleFailures samples outage targets weighted by how many routing
// trees cross each link: heavily loaded links fail as often as light
// ones in reality, but only loaded ones produce observable bursts, and
// the capture — like the paper's — is defined by its bursts.
func (ds *Dataset) scheduleFailures(rng *rand.Rand) {
	links := ds.Net.Graph.Links()
	weights := make([]float64, len(links))
	total := 0.0
	for i, l := range links {
		w := float64(len(ds.Base.AffectedOrigins(l)))
		weights[i] = w
		total += w
	}
	capture := time.Duration(ds.Cfg.Days) * 24 * time.Hour
	for f := 0; f < ds.Cfg.Failures; f++ {
		at := time.Duration(rng.Int63n(int64(capture)))
		pick := rng.Float64() * total
		idx := 0
		for i, w := range weights {
			pick -= w
			if pick <= 0 {
				idx = i
				break
			}
		}
		fail := Failure{At: at, Link: links[idx]}
		if rng.Float64() < ds.Cfg.ASFailureFraction {
			// Kill the endpoint with more links (a core router outage).
			if ds.Net.Graph.Degree(links[idx].A) >= ds.Net.Graph.Degree(links[idx].B) {
				fail.DeadAS = links[idx].A
			} else {
				fail.DeadAS = links[idx].B
			}
		}
		ds.Failures = append(ds.Failures, fail)
	}
	sort.Slice(ds.Failures, func(i, j int) bool { return ds.Failures[i].At < ds.Failures[j].At })
}

// Popular reports whether an origin is one of the hypergiant analogs.
func (ds *Dataset) Popular(origin uint32) bool { return ds.popular[origin] }

// Delta returns (computing and caching on first use) the routing delta
// of failure i.
func (ds *Dataset) Delta(i int) *bgpsim.FailureDelta {
	if d, ok := ds.deltas[i]; ok {
		return d
	}
	f := ds.Failures[i]
	var d *bgpsim.FailureDelta
	if f.DeadAS != 0 {
		d = ds.Base.FailAS(f.DeadAS)
	} else {
		d = ds.Base.FailLink(f.Link)
	}
	ds.deltas[i] = d
	return d
}

// BurstStat is the cheap per-(failure, session) census row.
type BurstStat struct {
	FailureIdx  int
	Session     Session
	At          time.Duration
	Withdrawals int
	Announces   int
	Duration    time.Duration
	// Popular reports whether the burst withdraws any popular origin.
	Popular bool
}

// Census computes burst sizes and durations for every (failure,
// session) pair with at least minWithdrawals, without materializing the
// event streams. This powers the Fig. 2 analysis.
func (ds *Dataset) Census(minWithdrawals int) []BurstStat {
	if out, ok := ds.census[minWithdrawals]; ok {
		return out
	}
	var out []BurstStat
	for i := range ds.Failures {
		d := ds.Delta(i)
		for _, s := range ds.Sessions {
			w, a := ds.Base.BurstSizeAt(d, s.Vantage, s.Neighbor)
			if w < minWithdrawals {
				continue
			}
			// Per-burst timing seed, identical to BurstsAt's, so the
			// census duration matches the materialized stream.
			tm := ds.Cfg.Timing
			tm.Seed = ds.Cfg.Seed ^ int64(i)<<20 ^ int64(s.Vantage)<<8 ^ int64(s.Neighbor)
			stat := BurstStat{
				FailureIdx:  i,
				Session:     s,
				At:          ds.Failures[i].At,
				Withdrawals: w,
				Announces:   a,
				Duration:    bgpsim.EstimateDuration(tm, w, a),
			}
			for _, c := range d.SessionChanges(ds.Base, s.Vantage, s.Neighbor) {
				if c.Withdraw && ds.popular[c.Origin] {
					stat.Popular = true
					break
				}
			}
			out = append(out, stat)
		}
	}
	ds.census[minWithdrawals] = out
	return out
}

type burstKey struct {
	s   Session
	min int
}

// BurstsAt materializes full event streams for every failure visible at
// the session with at least minWithdrawals — the workload for the
// inference and encoding evaluations (Fig. 6, Table 2, Fig. 7, Fig. 8).
// Results are memoized: experiments replay the same streams repeatedly.
func (ds *Dataset) BurstsAt(s Session, minWithdrawals int) []*bgpsim.Burst {
	key := burstKey{s: s, min: minWithdrawals}
	if out, ok := ds.bursts[key]; ok {
		return out
	}
	var out []*bgpsim.Burst
	for i := range ds.Failures {
		d := ds.Delta(i)
		w, _ := ds.Base.BurstSizeAt(d, s.Vantage, s.Neighbor)
		if w < minWithdrawals {
			continue
		}
		tm := ds.Cfg.Timing
		tm.Seed = ds.Cfg.Seed ^ int64(i)<<20 ^ int64(s.Vantage)<<8 ^ int64(s.Neighbor)
		out = append(out, ds.Base.BurstAt(d, s.Vantage, s.Neighbor, tm))
	}
	ds.bursts[key] = out
	return out
}

// SessionRIB returns a session's initial table keyed by origin.
func (ds *Dataset) SessionRIB(s Session) map[uint32][]uint32 {
	return ds.Net.SessionRIB(ds.Base.Sols, s.Vantage, s.Neighbor)
}
