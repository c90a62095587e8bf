package experiments

import (
	"fmt"
	"strings"
	"time"

	"swift/internal/bgpsim"
	"swift/internal/topology"
)

// Table1Row is one burst-size row of Table 1.
type Table1Row struct {
	Withdrawals   int
	PaperDowntime time.Duration
	Downtime      time.Duration
}

// Table1Result reproduces Table 1: data-plane downtime of a vanilla
// router versus burst size upon the Fig. 1 (5,6) failure.
type Table1Result struct {
	Rows []Table1Row
}

// paperTable1 holds the published numbers.
var paperTable1 = map[int]time.Duration{
	10000:  3800 * time.Millisecond,
	50000:  19 * time.Second,
	100000: 37900 * time.Millisecond,
	290000: 109 * time.Second,
}

// Table1 measures downtime for each burst size: AS 6 advertises the
// prefixes, link (5,6) fails, and the AS 1 router (vanilla BGP,
// per-prefix FIB writes) restores 100 probes as withdrawals drain in.
func Table1(sizes []int, seed int64) Table1Result {
	if len(sizes) == 0 {
		sizes = []int{10000, 50000, 100000, 290000}
	}
	var out Table1Result
	for _, n := range sizes {
		net := &bgpsim.Network{
			Graph:   topology.Fig1(),
			Policy:  bgpsim.Fig1Network(1).Policy,
			Origins: map[uint32]int{6: n},
		}
		b, err := net.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.TestbedTiming(seed))
		if err != nil {
			panic(err) // static topology: cannot fail
		}
		restore := RestoreTimesBGP(b, bgpsim.PerPrefixUpdate)
		d := MeasureDowntime(restore, SampleProbes(b, 100))
		out.Rows = append(out.Rows, Table1Row{
			Withdrawals:   n,
			PaperDowntime: paperTable1[n],
			Downtime:      d.Last,
		})
	}
	return out
}

// String renders the table next to the paper's numbers.
func (r Table1Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table 1: data-plane downtime vs burst size (vanilla router)\n")
	sb.WriteString("Withdrawals   Paper (s)   Measured (s)\n")
	for _, row := range r.Rows {
		paper := "-"
		if row.PaperDowntime > 0 {
			paper = fmt.Sprintf("%.1f", row.PaperDowntime.Seconds())
		}
		fmt.Fprintf(&sb, "%-13d %-11s %.1f\n", row.Withdrawals, paper, row.Downtime.Seconds())
	}
	return sb.String()
}
