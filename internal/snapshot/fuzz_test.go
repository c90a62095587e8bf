package snapshot

import (
	"bytes"
	"testing"
	"time"

	"swift/internal/burst"
	"swift/internal/dataplane"
	"swift/internal/encoding"
	"swift/internal/event"
	"swift/internal/netaddr"
	"swift/internal/reroute"
	"swift/internal/rib"
	"swift/internal/swift"
	"swift/internal/topology"
)

// syntheticImage is a small fleet image built field by field, so every
// optional part of a peer section is present — plan, scheme, burst
// state, reroute links — in a file of a few hundred bytes: big seeds
// leave the fuzzer minimizing instead of mutating. The second peer has
// no plan and no scheme.
func syntheticImage() *FleetImage {
	p1, p2 := netaddr.MustParsePrefix("10.0.0.0/8"), netaddr.MustParsePrefix("10.1.0.0/16")
	link := topology.Link{A: 2, B: 5}
	table := rib.TableImage{LocalAS: 1, Routes: []rib.RouteImage{{Prefix: p1, Path: 1}, {Prefix: p2, Path: 2}}}
	tags := []encoding.TagAssignment{{Prefix: p1, Tag: 0x11}, {Prefix: p2, Tag: 0x12}}
	full := swift.EngineState{
		Table:    table,
		Alts:     []swift.AltState{{Neighbor: 3, Table: rib.TableImage{LocalAS: 1, Routes: []rib.RouteImage{{Prefix: p1, Path: 3}}}}},
		History:  burst.HistoryImage{Counts: []burst.HistoryCount{{Value: 4, Count: 2}}},
		Detector: burst.DetectorImage{State: 1, Started: 5, Count: 2, Times: []time.Duration{5, 6}},
		Plan: &reroute.PlanImage{LocalAS: 1, Depth: 2,
			Backups:  []reroute.BackupRow{{Prefix: p1, Row: []uint32{3, 0}}},
			Assigned: []reroute.NHCount{{NH: 3, Count: 1}}},
		Scheme: &encoding.SchemeImage{Cfg: encoding.Config{TagBits: 48, PathBits: 40, MaxDepth: 2, MinPrefixes: 1, NHBits: 8},
			LocalAS:   1,
			LinkDicts: [][]encoding.LinkValue{{{Link: link, Value: 1}}, nil},
			NHs:       []encoding.NHValue{{AS: 3, Value: 1}},
			Tags:      tags},
		FIB: dataplane.FIBImage{Tags: tags,
			Rules:  []encoding.Rule{{Value: 0x11, Mask: 0xff, NextHop: 2, Priority: 0}, {Value: 0x01, Mask: 0x0f, NextHop: 3, Priority: 10}},
			Writes: 4, Elapsed: 7},
		ProvisionSig: 9, HaveProvision: true,
		LastWithdrawal: 6, BurstStartAt: 5,
		RerouteActive: true, OwnLinks: []topology.Link{link},
		ExtActive: true, ExtLinks: []topology.Link{link}, ExtEpoch: 1,
	}
	return &FleetImage{
		Pool: rib.PoolImage{
			Links: []topology.Link{{}, link},
			Paths: []rib.PathImage{{ID: 1, Path: []uint32{2, 5}}, {ID: 2, Path: []uint32{2, 5, 6}}, {ID: 3, Path: []uint32{3}}},
		},
		Peers: []PeerImage{
			{Key: event.PeerKey{AS: 2, BGPID: 1}, State: full},
			{Key: event.PeerKey{AS: 2, BGPID: 2}, State: swift.EngineState{Table: table}},
		},
	}
}

// FuzzSnapshotRead feeds arbitrary bytes to the checkpoint decoder, the
// one reader of files from outside the process that restore trusts. It
// must return an error rather than panic or allocate past what the
// input holds, and whatever it accepts must re-serialize to the bytes
// it was read from: the format is canonical, so an accepted stream is
// exactly a written one, up to the bytes after the checksum that Read
// never consumes.
func FuzzSnapshotRead(f *testing.F) {
	for _, seed := range []*FleetImage{{}, syntheticImage()} {
		var buf bytes.Buffer
		if err := Write(&buf, seed); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, img); err != nil {
			t.Fatalf("re-serializing an accepted stream: %v", err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("accepted %d bytes re-serialize to %d different ones", len(data), out.Len())
		}
	})
}
