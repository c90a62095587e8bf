package dataplane

import (
	"fmt"
	"testing"

	"swift/internal/encoding"
	"swift/internal/netaddr"
)

// The LPM benchmarks measure two structures side by side on the same
// tables and address samples: the Poptrie (the FIB's stage 1 — a sorted
// entry slice indexed by a 16-bit direct root + popcount-indexed
// stride-6 levels) and the map-plus-length-scan baseline (newMapLPM in
// lpm_test.go, retained as the reference point of the whole
// trajectory).

// benchPrefixes builds a mixed-length table shaped like a provisioned
// stage 1: mostly /32 host routes plus covering blocks — the hot-case
// table a plain binary trie loses to the map on.
func benchPrefixes(n int) []netaddr.Prefix {
	out := make([]netaddr.Prefix, 0, n)
	for i := 0; i < n; i++ {
		if i%16 == 0 {
			out = append(out, netaddr.BlockFor(uint32(100+i%50), i%256))
		} else {
			out = append(out, netaddr.PrefixFor(uint32(100+i%50), i/50))
		}
	}
	return out
}

// benchAddrs samples hit addresses from a prefix table.
func benchAddrs(ps []netaddr.Prefix) []uint32 {
	addrs := make([]uint32, 1024)
	for i := range addrs {
		addrs[i] = ps[(i*97)%len(ps)].Addr()
	}
	return addrs
}

// tagTable tags ps[i] with i%64, a later duplicate overwriting an
// earlier one, as a strictly ascending assignment.
func tagTable(ps []netaddr.Prefix) []TagEntry {
	m := make(map[netaddr.Prefix]encoding.Tag, len(ps))
	for i, p := range ps {
		m[p] = encoding.Tag(i % 64)
	}
	return sortedEntries(m)
}

// fillPoptrie provisions the table as the FIB does, with one Replace,
// and builds the lookup index before the clock starts.
func fillPoptrie(ps []netaddr.Prefix) *Poptrie {
	var pt Poptrie
	if err := pt.Replace(tagTable(ps)); err != nil {
		panic(err)
	}
	pt.Lookup(0)
	return &pt
}

func fillMap(ps []netaddr.Prefix) *mapLPM {
	r := newMapLPM()
	for i, p := range ps {
		r.Insert(p, encoding.Tag(i%64))
	}
	return r
}

// BenchmarkLPMLookupPoptrie measures stage-1 longest-prefix match on
// the hot /32-heavy table through the direct-index + popcount read
// path — the number that has to beat the map.
func BenchmarkLPMLookupPoptrie(b *testing.B) {
	pt := fillPoptrie(benchPrefixes(100000))
	addrs := benchAddrs(benchPrefixes(100000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Lookup(addrs[i%len(addrs)])
	}
}

// BenchmarkLPMLookupMap measures the map-plus-length-scan baseline,
// retained since PR 5 as the fixed reference of the lookup trajectory.
func BenchmarkLPMLookupMap(b *testing.B) {
	r := fillMap(benchPrefixes(100000))
	addrs := benchAddrs(benchPrefixes(100000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Lookup(addrs[i%len(addrs)])
	}
}

// BenchmarkLPMLookupBatch measures the burst-amortized stage-1 path:
// one LookupBatch call resolving 256 addresses, reported per packet.
func BenchmarkLPMLookupBatch(b *testing.B) {
	pt := fillPoptrie(benchPrefixes(100000))
	addrs := benchAddrs(benchPrefixes(100000))[:256]
	tags := make([]encoding.Tag, len(addrs))
	ok := make([]bool, len(addrs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.LookupBatch(addrs, tags, ok)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(addrs)), "ns/packet")
}

// benchDensePrefixes spreads n prefixes over /16../24 — the shape of a
// full Internet table (BGP tables are /24-dominated with covering
// aggregates) at realistic size, so the hit-latency target is proven at
// 512k entries, not just the small fixtures.
func benchDensePrefixes(n int) []netaddr.Prefix {
	out := make([]netaddr.Prefix, 0, n)
	for i := 0; i < n; i++ {
		length := 16 + i%9
		addr := (uint32(i)*2654435761 + 40503) & netaddr.Mask(length)
		out = append(out, netaddr.MakePrefix(addr, length))
	}
	return out
}

// BenchmarkLPMLookupDense{Poptrie,Map}: hit
// lookups against a 512k-entry /16../24 full-table shape.
func BenchmarkLPMLookupDensePoptrie(b *testing.B) {
	ps := benchDensePrefixes(512 << 10)
	pt := fillPoptrie(ps)
	addrs := benchAddrs(ps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Lookup(addrs[i%len(addrs)])
	}
}

func BenchmarkLPMLookupDenseMap(b *testing.B) {
	ps := benchDensePrefixes(512 << 10)
	r := fillMap(ps)
	addrs := benchAddrs(ps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Lookup(addrs[i%len(addrs)])
	}
}

// benchMixedLengths spreads prefixes over many distinct lengths
// (8..32), hits at varying depths — the case the old length-probe scan
// degrades on (one map probe per populated length).
func benchMixedLengths(n int) []netaddr.Prefix {
	out := make([]netaddr.Prefix, 0, n)
	for i := 0; i < n; i++ {
		length := 8 + i%25
		addr := (uint32(i)*2654435761 + 12345) & netaddr.Mask(length)
		p := netaddr.MakePrefix(addr, length)
		out = append(out, p)
	}
	return out
}

// BenchmarkLPMMixedLengths{Poptrie,Map}: lookups against a table
// with 25 populated prefix lengths.
func BenchmarkLPMMixedLengthsPoptrie(b *testing.B) {
	ps := benchMixedLengths(100000)
	pt := fillPoptrie(ps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Lookup(ps[(i*97)%len(ps)].Addr())
	}
}

func BenchmarkLPMMixedLengthsMap(b *testing.B) {
	ps := benchMixedLengths(100000)
	r := fillMap(ps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Lookup(ps[(i*97)%len(ps)].Addr())
	}
}

// BenchmarkLPMMiss{Poptrie,Map}: addresses with no covering prefix.
// The poptrie rejects on the root probe; the scan probes every
// populated length.
func BenchmarkLPMMissPoptrie(b *testing.B) {
	pt := fillPoptrie(benchMixedLengths(100000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Lookup(0xf0000000 | uint32(i))
	}
}

func BenchmarkLPMMissMap(b *testing.B) {
	r := fillMap(benchMixedLengths(100000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Lookup(0xf0000000 | uint32(i))
	}
}

// BenchmarkLPMInsertDeletePoptrie measures a full withdraw/re-announce
// churn cycle against a warm 100k-entry table: two shifts of the sorted
// entries plus the incremental index mirror. No engine or ledger path
// writes stage 1 one prefix at a time — they all Replace — so this
// prices only the small vanilla-BGP tables the scenario engine keeps.
func BenchmarkLPMInsertDeletePoptrie(b *testing.B) {
	ps := benchPrefixes(100000)
	pt := fillPoptrie(ps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ps[i%len(ps)]
		pt.Delete(p)
		pt.Insert(p, encoding.Tag(i%64))
	}
}

// benchFIB provisions the two-stage pipeline the Forward benchmarks
// share: 100k stage-1 entries, 8 stage-2 rules.
func benchFIB() (*FIB, []uint32) {
	ps := make([]netaddr.Prefix, 100000)
	for i := range ps {
		ps[i] = netaddr.PrefixFor(uint32(100+i%50), i/50)
	}
	f := New(Config{})
	if err := f.ReplaceTags(tagTable(ps)); err != nil {
		panic(err)
	}
	for p := 0; p < 8; p++ {
		f.InstallRule(encoding.Rule{Value: encoding.Tag(p), Mask: 0x3f, NextHop: uint32(p), Priority: p})
	}
	addrs := make([]uint32, 1024)
	for i := range addrs {
		addrs[i] = netaddr.PrefixFor(uint32(100+i%50), i).Addr()
	}
	return f, addrs
}

// BenchmarkForward measures the full two-stage pipeline, one packet per
// call.
func BenchmarkForward(b *testing.B) {
	f, addrs := benchFIB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Forward(addrs[i%len(addrs)])
	}
}

// BenchmarkForwardBatch measures the burst pipeline: one ForwardBatch
// call moving 256 packets through both stages, reported per packet.
func BenchmarkForwardBatch(b *testing.B) {
	f, addrs := benchFIB()
	burst := addrs[:256]
	nh := make([]uint32, len(burst))
	ok := make([]bool, len(burst))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ForwardBatch(burst, nh, ok)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(burst)), "ns/packet")
}

// BenchmarkForwardBurst documents the amortization curve NDN-DPDK-style
// burst sizing rests on: batched vs per-packet forwarding at burst
// sizes 1, 16, 64 and 256, each reported per packet.
func BenchmarkForwardBurst(b *testing.B) {
	f, addrs := benchFIB()
	for _, size := range []int{1, 16, 64, 256} {
		burst := addrs[:size]
		nh := make([]uint32, size)
		ok := make([]bool, size)
		b.Run(fmt.Sprintf("batched-%d", size), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.ForwardBatch(burst, nh, ok)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/packet")
		})
		b.Run(fmt.Sprintf("perpacket-%d", size), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, a := range burst {
					f.Forward(a)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/packet")
		})
	}
}
