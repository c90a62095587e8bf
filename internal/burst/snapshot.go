package burst

import (
	"fmt"
	"time"
)

// Warm-restart images for the adaptive-threshold state. The History's
// Fenwick tree collapses to its sparse per-value counts (canonical:
// ascending by value, zero counts omitted), which is both the smallest
// faithful representation and one that re-serializes identically after
// a restore. The Detector carries its window verbatim so a snapshot
// taken mid-stream resumes with the same thresholds armed.

// HistoryCount is one (window count value, occurrences) pair.
type HistoryCount struct {
	Value int
	Count int
}

// HistoryImage is the recorded distribution, ascending by Value.
type HistoryImage struct {
	Counts []HistoryCount
}

// maxHistoryValue bounds the window counts a restored history may hold.
// The tree is sized from the largest one, so without a bound an image
// from outside could demand any amount of memory. 1<<22 withdrawals in
// one window is four times a full IPv4 table, a 32 MiB tree.
const maxHistoryValue = 1 << 22

// Export captures the recorded window-count distribution.
func (h *History) Export() HistoryImage {
	var img HistoryImage
	for v := 1; v <= h.size; v++ {
		if c := h.prefix(v) - h.prefix(v-1); c > 0 {
			img.Counts = append(img.Counts, HistoryCount{Value: v - 1, Count: c})
		}
	}
	return img
}

// Restore rebuilds an empty history from img in one re-treeing pass —
// the same bulk build grow uses — instead of Record-ing sample by
// sample.
func (h *History) Restore(img HistoryImage) error {
	if h.n != 0 {
		return fmt.Errorf("burst: restore into non-empty history (%d samples)", h.n)
	}
	if len(img.Counts) == 0 {
		return nil
	}
	size := 256
	for i, c := range img.Counts {
		if c.Value < 0 || c.Value > maxHistoryValue || c.Count <= 0 {
			return fmt.Errorf("burst: restore: invalid history pair (%d, %d)", c.Value, c.Count)
		}
		if i > 0 && c.Value <= img.Counts[i-1].Value {
			return fmt.Errorf("burst: restore: history values not ascending at %d", c.Value)
		}
	}
	for size < img.Counts[len(img.Counts)-1].Value+1 {
		size *= 2
	}
	h.size = size
	h.tree = make([]int, size+1)
	for _, c := range img.Counts {
		for i := c.Value + 1; i <= size; i += i & -i {
			h.tree[i] += c.Count
		}
		h.n += c.Count
	}
	return nil
}

// DetectorImage is a detector's phase plus its sliding window, oldest
// first (the ring is exported compacted, so restoring resets head to
// zero without changing behavior).
type DetectorImage struct {
	State   State
	Started time.Duration
	Count   int
	Times   []time.Duration
}

// Export captures the detector's phase and window.
func (d *Detector) Export() DetectorImage {
	return DetectorImage{
		State:   d.state,
		Started: d.started,
		Count:   d.count,
		Times:   append([]time.Duration(nil), d.times[d.head:]...),
	}
}

// Restore loads img into a fresh detector (config and history binding
// come from the constructor, not the image).
func (d *Detector) Restore(img DetectorImage) error {
	if len(d.times) != d.head {
		return fmt.Errorf("burst: restore into non-empty detector window")
	}
	if img.State != Quiet && img.State != InBurst {
		return fmt.Errorf("burst: restore: unknown detector state %d", img.State)
	}
	for i := 1; i < len(img.Times); i++ {
		if img.Times[i] < img.Times[i-1] {
			return fmt.Errorf("burst: restore: window times not monotone at %d", i)
		}
	}
	d.state = img.State
	d.started = img.Started
	d.count = img.Count
	d.times = append([]time.Duration(nil), img.Times...)
	d.head = 0
	return nil
}
