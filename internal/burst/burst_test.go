package burst

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestDetectorStartsOnDenseWindow(t *testing.T) {
	d := NewDetector(Config{StartThreshold: 100, StopThreshold: 5}, nil)
	tr := None
	for i := 0; i < 100; i++ {
		tr = d.ObserveWithdrawal(ms(i))
	}
	if tr != Started {
		t.Fatalf("100th withdrawal in 100ms should start a burst, got %v", tr)
	}
	if d.State() != InBurst {
		t.Error("state should be InBurst")
	}
	if d.BurstCount() != 100 {
		t.Errorf("burst count = %d", d.BurstCount())
	}
}

// TestDetectorSteadyStreamAllocs: a steady withdrawal stream of 10,000
// per run compacts the window ring several times (each time more than
// 1,024 evicted entries make up over half of it), and compaction reuses
// the ring's array, so once warm nothing allocates.
func TestDetectorSteadyStreamAllocs(t *testing.T) {
	d := NewDetector(Config{}, nil)
	at := time.Duration(0)
	step := DefaultWindow / 1500 // ~1,500 withdrawals in the window
	stream := func() {
		for i := 0; i < 10_000; i++ {
			at += step
			d.ObserveWithdrawal(at)
		}
	}
	stream()
	if allocs := testing.AllocsPerRun(10, stream); allocs != 0 {
		t.Errorf("10,000 steady withdrawals allocate %v objects, want 0", allocs)
	}
}

func TestDetectorIgnoresSparseStream(t *testing.T) {
	d := NewDetector(Config{StartThreshold: 10, StopThreshold: 2}, nil)
	// One withdrawal per minute: the 10s window never fills.
	for i := 0; i < 100; i++ {
		if tr := d.ObserveWithdrawal(time.Duration(i) * time.Minute); tr != None {
			t.Fatalf("sparse stream started a burst at %d", i)
		}
	}
}

func TestDetectorEndsOnQuiet(t *testing.T) {
	d := NewDetector(Config{StartThreshold: 50, StopThreshold: 5}, nil)
	for i := 0; i < 60; i++ {
		d.ObserveWithdrawal(ms(i * 10))
	}
	if d.State() != InBurst {
		t.Fatal("burst should have started")
	}
	// Long silence: the window drains past the stop threshold.
	if tr := d.Tick(ms(600) + DefaultWindow); tr != Ended {
		t.Fatalf("Tick after silence = %v, want Ended", tr)
	}
	if d.State() != Quiet {
		t.Error("state should be Quiet")
	}
	if d.BurstCount() != 0 {
		t.Error("burst count must reset")
	}
}

func TestDetectorCountsWholeBurst(t *testing.T) {
	d := NewDetector(Config{StartThreshold: 10, StopThreshold: 1}, nil)
	n := 0
	for i := 0; i < 500; i++ {
		if d.ObserveWithdrawal(ms(i)) == Started {
			n = d.BurstCount()
		}
	}
	if n != 10 {
		t.Errorf("count at start = %d, want 10", n)
	}
	if d.BurstCount() != 500 {
		t.Errorf("final count = %d, want 500", d.BurstCount())
	}
}

func TestDetectorNonMonotoneClamped(t *testing.T) {
	d := NewDetector(Config{StartThreshold: 3, StopThreshold: 1}, nil)
	d.ObserveWithdrawal(ms(100))
	d.ObserveWithdrawal(ms(50)) // goes back in time: clamped
	if tr := d.ObserveWithdrawal(ms(100)); tr != Started {
		t.Errorf("clamped stream should still trigger, got %v", tr)
	}
}

func TestHistoryPercentiles(t *testing.T) {
	var h History
	for i := 1; i <= 10000; i++ {
		h.Record(i % 10) // window counts 0..9
	}
	if p := h.Percentile(90); p != 9 {
		t.Errorf("P90 = %d, want 9", p)
	}
	if h.N() != 10000 {
		t.Errorf("N = %d", h.N())
	}
	// The floor keeps quiet sessions from hair-triggering.
	if th := h.StartThreshold(1500); th != 1500 {
		t.Errorf("StartThreshold = %d, want floored 1500", th)
	}
	// A history with huge windows raises the threshold.
	var h2 History
	for i := 0; i < 10000; i++ {
		h2.Record(3000)
	}
	if th := h2.StartThreshold(1500); th != 3000 {
		t.Errorf("StartThreshold = %d, want 3000", th)
	}
}

func TestDetectorUsesHistoryThreshold(t *testing.T) {
	var h History
	for i := 0; i < 100000; i++ {
		h.Record(5) // very quiet history: threshold floors at min
	}
	d := NewDetector(Config{StartThreshold: 20, StopThreshold: 2}, &h)
	tr := None
	for i := 0; i < 20; i++ {
		tr = d.ObserveWithdrawal(ms(i))
	}
	if tr != Started {
		t.Errorf("history-floored threshold should trigger at 20, got %v", tr)
	}
}
