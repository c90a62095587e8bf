package burst

import (
	"math/rand"
	"testing"
	"time"
)

// TestDetectorSegmenterAgree replays random streams of dense bursts
// separated by quiet gaps through the streaming Detector and checks it
// starts exactly one burst per generated one.
func TestDetectorSegmenterAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		cfg := Config{StartThreshold: 50, StopThreshold: 5}
		var times []time.Duration
		clock := time.Duration(0)
		// Random alternation of dense bursts and quiet gaps.
		nBursts := 1 + rng.Intn(4)
		for b := 0; b < nBursts; b++ {
			clock += time.Duration(30+rng.Intn(60)) * time.Second
			n := 100 + rng.Intn(400)
			for i := 0; i < n; i++ {
				clock += time.Duration(rng.Intn(10)) * time.Millisecond
				times = append(times, clock)
			}
		}

		d := NewDetector(cfg, nil)
		started := 0
		for _, at := range times {
			if d.ObserveWithdrawal(at) == Started {
				started++
			}
			// Ticks between messages let the detector close quiet bursts.
			d.Tick(at + 1)
		}
		d.Tick(clock + time.Minute)
		if started != nBursts {
			t.Fatalf("trial %d: detector started %d bursts, generated %d", trial, started, nBursts)
		}
	}
}
