package experiments

import (
	"slices"
	"time"

	"swift/internal/bgpsim"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
)

// The data-plane convergence model behind Table 1 and the §7 case study
// (Fig. 9a): a vanilla router processes the withdrawal burst message by
// message and rewrites its FIB one prefix at a time; a SWIFTED router
// restores predicted prefixes in bulk at inference time with a handful
// of tag rules. Both models share the same burst, so the comparison
// isolates exactly what the paper measures.

// RestoreTimesBGP computes, for every withdrawn prefix in the burst,
// when a vanilla router restores its connectivity: the withdrawal's FIB
// write on the burst's bgpsim.Burst.FIBWrites schedule switches it to
// the locally known alternate route. perUpdate ≤ 0 means
// bgpsim.PerPrefixUpdate.
func RestoreTimesBGP(b *bgpsim.Burst, perUpdate time.Duration) map[netaddr.Prefix]time.Duration {
	if perUpdate <= 0 {
		perUpdate = bgpsim.PerPrefixUpdate
	}
	out := make(map[netaddr.Prefix]time.Duration, b.Size)
	for i, done := range b.FIBWrites(perUpdate) {
		if ev := b.Events[i]; ev.Kind == bgpsim.KindWithdraw {
			out[ev.Prefix] = done
		}
	}
	return out
}

// RestoreTimesSwift computes when a SWIFTED router restores each
// withdrawn prefix: at the first accepted inference that predicted it
// (plus the rule-installation latency), or at the BGP time otherwise.
func RestoreTimesSwift(b *bgpsim.Burst, decisions []swiftengine.Decision, perUpdate time.Duration) map[netaddr.Prefix]time.Duration {
	bgp := RestoreTimesBGP(b, perUpdate)
	// Earliest predicted-restoration time per prefix.
	predicted := make(map[netaddr.Prefix]time.Duration)
	for _, d := range decisions {
		ready := d.At + d.DataplaneTime
		for _, p := range d.Predicted {
			if t, ok := predicted[p]; !ok || ready < t {
				predicted[p] = ready
			}
		}
	}
	out := make(map[netaddr.Prefix]time.Duration, len(bgp))
	for p, t := range bgp {
		if pt, ok := predicted[p]; ok && pt < t {
			out[p] = pt
		} else {
			out[p] = t
		}
	}
	return out
}

// Downtime summarizes a restore-time map against the probe methodology
// of §2.1.2: the time until a given fraction of probed prefixes have
// connectivity again.
type Downtime struct {
	// Last is the restoration time of the final probe (the paper's
	// Table 1 number: time to retrieve connectivity for all probes).
	Last time.Duration
	// Median and P99 describe the distribution.
	Median, P99 time.Duration
}

// MeasureDowntime samples probes (all prefixes when probes is nil).
func MeasureDowntime(restore map[netaddr.Prefix]time.Duration, probes []netaddr.Prefix) Downtime {
	ts := probeTimes(restore, probes)
	if len(ts) == 0 {
		return Downtime{}
	}
	return Downtime{
		Last:   ts[len(ts)-1],
		Median: ts[len(ts)/2],
		P99:    ts[(len(ts)-1)*99/100],
	}
}

// LossPoint is one sample of the Fig. 9a packet-loss curve.
type LossPoint struct {
	T    time.Duration
	Loss float64 // fraction of probes still blackholed
}

// LossSeries samples the fraction of unrestored probes over time at the
// given step, from the failure instant until full restoration.
func LossSeries(restore map[netaddr.Prefix]time.Duration, probes []netaddr.Prefix, step time.Duration) []LossPoint {
	ts := probeTimes(restore, probes)
	if len(ts) == 0 {
		return nil
	}
	end := ts[len(ts)-1]
	var out []LossPoint
	idx := 0
	for t := time.Duration(0); ; t += step {
		for idx < len(ts) && ts[idx] <= t {
			idx++
		}
		out = append(out, LossPoint{T: t, Loss: float64(len(ts)-idx) / float64(len(ts))})
		if t >= end {
			break
		}
	}
	return out
}

// probeTimes returns the probes' restoration times (every prefix's when
// probes is nil) in ascending order.
func probeTimes(restore map[netaddr.Prefix]time.Duration, probes []netaddr.Prefix) []time.Duration {
	var ts []time.Duration
	if probes == nil {
		for _, t := range restore {
			ts = append(ts, t)
		}
	} else {
		for _, p := range probes {
			if t, ok := restore[p]; ok {
				ts = append(ts, t)
			}
		}
	}
	slices.Sort(ts)
	return ts
}

// SampleProbes deterministically picks n probe prefixes among the
// burst's withdrawn prefixes, mimicking §2.1.2's 100 random probe IPs.
func SampleProbes(b *bgpsim.Burst, n int) []netaddr.Prefix {
	var withdrawn []netaddr.Prefix
	seen := make(map[netaddr.Prefix]bool)
	for _, ev := range b.Events {
		if ev.Kind == bgpsim.KindWithdraw && !seen[ev.Prefix] {
			seen[ev.Prefix] = true
			withdrawn = append(withdrawn, ev.Prefix)
		}
	}
	if n >= len(withdrawn) {
		return withdrawn
	}
	// Even stride over the (time-ordered) withdrawals: covers head,
	// middle and tail of the burst.
	out := make([]netaddr.Prefix, 0, n)
	stride := len(withdrawn) / n
	for i := 0; i < n; i++ {
		out = append(out, withdrawn[i*stride])
	}
	return out
}
