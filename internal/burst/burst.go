// Package burst implements SWIFT's burst detection (§4.1): a sliding
// window over the withdrawal stream whose start/stop thresholds come
// from percentiles of the session's recent history (99.99th and 90th of
// withdrawals seen over any window-sized period). Its streaming
// Detector is the one implementation of §4.1; the SWIFT engine feeds it
// every withdrawal and quiet tick.
package burst

import (
	"time"
)

// DefaultWindow is the paper's 10-second sliding window.
const DefaultWindow = 10 * time.Second

// Default thresholds, the paper's calibration on RouteViews/RIS data:
// 1,500 withdrawals per window starts a burst (99.99th percentile), 9
// stops it (90th percentile).
const (
	DefaultStartThreshold = 1500
	DefaultStopThreshold  = 9
)

// Config parameterizes a Detector.
type Config struct {
	// Window is the sliding window size (default 10 s).
	Window time.Duration
	// StartThreshold begins a burst when the window holds this many
	// withdrawals (default 1,500). When a History is attached to a
	// Detector, its 99.99th percentile takes precedence.
	StartThreshold int
	// StopThreshold ends a burst when the window count drops to or
	// below it (default 9).
	StopThreshold int
}

func (c Config) window() time.Duration {
	if c.Window <= 0 {
		return DefaultWindow
	}
	return c.Window
}

func (c Config) start() int {
	if c.StartThreshold <= 0 {
		return DefaultStartThreshold
	}
	return c.StartThreshold
}

func (c Config) stop() int {
	if c.StopThreshold <= 0 {
		return DefaultStopThreshold
	}
	return c.StopThreshold
}

// History tracks per-window withdrawal counts over a long period (the
// paper uses a month) and derives the adaptive thresholds. It sits on
// the engine's per-withdrawal hot path — Record runs once per message
// and the threshold percentile is consulted whenever the detector is
// quiet — so it keeps an order-statistics tree (a Fenwick tree over
// counts) instead of raw samples: Record and Percentile stay
// logarithmic in the largest count seen no matter how long the session
// has been up, where re-sorting raw samples degraded quadratically on
// long-lived engines.
type History struct {
	n    int
	size int   // tree capacity, a power of two
	tree []int // Fenwick tree over windowCount+1, 1-based
}

// Record adds one observed window count.
func (h *History) Record(windowCount int) {
	if windowCount < 0 {
		windowCount = 0
	}
	idx := windowCount + 1
	if idx > h.size {
		h.grow(idx)
	}
	for i := idx; i <= h.size; i += i & -i {
		h.tree[i]++
	}
	h.n++
}

// grow rebuilds the tree with capacity >= min (amortized: capacities
// double, and a session's window counts plateau at its burst peak).
func (h *History) grow(min int) {
	size := h.size
	if size == 0 {
		size = 256
	}
	for size < min {
		size *= 2
	}
	// Recover per-value counts from the old tree, then re-tree them.
	counts := make([]int, size+1)
	for v := 1; v <= h.size; v++ {
		counts[v] = h.prefix(v) - h.prefix(v-1)
	}
	h.size = size
	h.tree = make([]int, size+1)
	for v := 1; v <= size; v++ {
		if counts[v] == 0 {
			continue
		}
		for i := v; i <= size; i += i & -i {
			h.tree[i] += counts[v]
		}
	}
}

// prefix returns how many recorded samples have value+1 <= v.
func (h *History) prefix(v int) int {
	s := 0
	for i := v; i > 0; i -= i & -i {
		s += h.tree[i]
	}
	return s
}

// N returns the number of recorded samples.
func (h *History) N() int { return h.n }

// Percentile returns the p-th percentile (nearest-rank) of recorded
// window counts, or 0 with no samples.
func (h *History) Percentile(p float64) int {
	if h.n == 0 {
		return 0
	}
	idx := int(p / 100 * float64(h.n))
	if idx >= h.n {
		idx = h.n - 1
	}
	if idx < 0 {
		idx = 0
	}
	// Select the (idx+1)-th smallest sample by descending the tree.
	k := idx + 1
	pos := 0
	for bit := h.size; bit > 0; bit >>= 1 {
		if next := pos + bit; next <= h.size && h.tree[next] < k {
			pos = next
			k -= h.tree[next]
		}
	}
	return pos // stored as value+1 at index pos+1
}

// StartThreshold returns the burst-start threshold implied by history
// (99.99th percentile, floored at min so a quiet session does not
// trigger on every withdrawal).
func (h *History) StartThreshold(min int) int {
	t := h.Percentile(99.99)
	if t < min {
		return min
	}
	return t
}

// State is the detector's current phase.
type State int

// Detector states.
const (
	Quiet State = iota
	InBurst
)

// Detector consumes a timestamped withdrawal stream and reports burst
// boundaries. Time is a monotone offset (the replay and trace formats
// use offsets from an epoch); feeding non-monotone times is an error
// tolerated by clamping.
type Detector struct {
	cfg     Config
	hist    *History
	state   State
	times   []time.Duration // withdrawal times within the window (ring as slice)
	head    int
	started time.Duration
	count   int // withdrawals in current burst
}

// NewDetector returns a detector. hist may be nil to use the static
// thresholds in cfg.
func NewDetector(cfg Config, hist *History) *Detector {
	return &Detector{cfg: cfg, hist: hist}
}

// State returns the current phase.
func (d *Detector) State() State { return d.state }

// BurstCount returns the number of withdrawals observed in the current
// burst (0 when quiet).
func (d *Detector) BurstCount() int {
	if d.state != InBurst {
		return 0
	}
	return d.count
}

// BurstStart returns the time the current burst began.
func (d *Detector) BurstStart() time.Duration { return d.started }

// Transition describes what a call to Observe caused.
type Transition int

// Observe outcomes.
const (
	None Transition = iota
	Started
	Ended
)

// evict drops window entries older than at-window.
func (d *Detector) evict(at time.Duration) {
	w := d.cfg.window()
	for d.head < len(d.times) && d.times[d.head] <= at-w {
		d.head++
	}
	if d.head > 1024 && d.head*2 > len(d.times) {
		d.times = d.times[:copy(d.times, d.times[d.head:])]
		d.head = 0
	}
}

func (d *Detector) windowCount() int { return len(d.times) - d.head }

// startThreshold resolves the effective start threshold.
func (d *Detector) startThreshold() int {
	if d.hist != nil && d.hist.N() > 0 {
		return d.hist.StartThreshold(d.cfg.start())
	}
	return d.cfg.start()
}

// ObserveWithdrawal feeds one withdrawal at the given offset.
func (d *Detector) ObserveWithdrawal(at time.Duration) Transition {
	if n := len(d.times); n > d.head && at < d.times[n-1] {
		at = d.times[n-1] // clamp non-monotone input
	}
	d.times = append(d.times, at)
	d.evict(at)
	if d.hist != nil {
		d.hist.Record(d.windowCount())
	}
	if d.state == Quiet && d.windowCount() >= d.startThreshold() {
		d.state = InBurst
		d.started = at
		d.count = d.windowCount()
		return Started
	}
	if d.state == InBurst {
		d.count++
	}
	return None
}

// Tick advances time without a withdrawal (announcements and keepalives
// drive this), possibly ending a burst.
func (d *Detector) Tick(at time.Duration) Transition {
	d.evict(at)
	if d.state == InBurst && d.windowCount() <= d.cfg.stop() {
		d.state = Quiet
		return Ended
	}
	return None
}
