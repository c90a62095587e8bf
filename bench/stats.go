package main

import (
	"bufio"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; +Inf samples (missed bursts) sort last, so a run
// that misses more than 1-q of its bursts reports +Inf. It returns NaN
// for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) || math.IsInf(s[lo+1], 1) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// resetPeakRSS restarts the kernel's resident-set high-water mark, so a
// run that follows another in the same process reports its own peak. The
// kernel restarts the mark at the current resident set, so what the
// previous run left in the heap is handed back to the system first.
// Where the kernel offers no reset the mark simply carries over.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the process's resident-set high-water mark in MiB
// (VmHWM), or NaN where /proc does not say.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
