package dataplane

import (
	"fmt"
	"time"

	"swift/internal/encoding"
)

// Warm-restart image for the two-stage FIB. Stage 1 exports its sorted
// entries as they are (the Dump order), stage 2 verbatim in match
// order, and the write accounting rides along so a restored FIB
// reports the same modeled update cost it had accrued — restoring is
// not charged as rule writes, because the hardware table this models
// would be repopulated from the saved state, not rebuilt through the
// per-rule update path being metered.

// FIBImage is a FIB's complete forwarding state.
type FIBImage struct {
	Tags    []TagEntry
	Rules   []encoding.Rule
	Writes  int
	Elapsed time.Duration
}

// Export captures the FIB. Tags come out in ascending prefix order,
// rules in match order, so the image is canonical.
func (f *FIB) Export() FIBImage {
	return FIBImage{
		Tags:    append(make([]TagEntry, 0, f.stage1.Len()), f.stage1.entries...),
		Rules:   append([]encoding.Rule(nil), f.stage2...),
		Writes:  f.writes,
		Elapsed: f.elapsed,
	}
}

// Restore builds a FIB from an image without charging writes.
func Restore(cfg Config, img FIBImage) (*FIB, error) {
	for i := 1; i < len(img.Rules); i++ {
		if img.Rules[i].Priority > img.Rules[i-1].Priority {
			return nil, fmt.Errorf("dataplane: restore: stage-2 rules not in match order at %d", i)
		}
	}
	f := New(cfg)
	if err := f.stage1.Replace(img.Tags); err != nil {
		return nil, err
	}
	f.stage2 = append([]encoding.Rule(nil), img.Rules...)
	f.writes = img.Writes
	f.elapsed = img.Elapsed
	return f, nil
}
