package controller

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"swift/internal/burst"
	"swift/internal/netaddr"
	"swift/internal/snapshot"
)

// maxFuzzCheckpoint caps a fuzz input, so every run restores a small
// fleet and stays short.
const maxFuzzCheckpoint = 64 << 10

// fuzzSeeds returns checkpoint bodies — files without their trailing
// CRC — of a provisioned two-peer fleet and of the mid-burst fixture,
// plus bodies that once crashed restore: a burst history whose window
// count sizes a tree past memory (1<<30) or never stops doubling it
// (1<<62), and a tag layout with a negative next-hop width.
func fuzzSeeds(f testing.TB) (bodies [][]byte, cfg FleetConfig) {
	prefixes := make([]netaddr.Prefix, 64)
	for i := range prefixes {
		prefixes[i] = netaddr.PrefixFor(8, i)
	}
	two := NewFleet(snapshotTestConfig(f, prefixes))
	two.Peer(PeerKey{AS: 2, BGPID: 1})
	two.Peer(PeerKey{AS: 3, BGPID: 1})
	mid, cfg, _, _ := midBurst(f, 256)
	for _, fl := range []*Fleet{two, mid} {
		var buf bytes.Buffer
		if err := fl.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		fl.Close()
		bodies = append(bodies, buf.Bytes()[:buf.Len()-4])
	}

	crash := func(edit func(*snapshot.PeerImage)) []byte {
		img, err := snapshot.Read(bytes.NewReader(withCRC(bodies[1])))
		if err != nil {
			f.Fatal(err)
		}
		edit(&img.Peers[0])
		var buf bytes.Buffer
		if err := snapshot.Write(&buf, img); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()[:buf.Len()-4]
	}
	for _, v := range []int{1 << 30, 1 << 62} {
		bodies = append(bodies, crash(func(p *snapshot.PeerImage) {
			p.State.History.Counts = []burst.HistoryCount{{Value: v, Count: 1}}
		}))
	}
	bodies = append(bodies, crash(func(p *snapshot.PeerImage) { p.State.Scheme.Cfg.NHBits = -1 }))
	for _, b := range bodies {
		if len(b) > maxFuzzCheckpoint {
			f.Fatalf("seed of %d bytes is past the %d-byte cap", len(b), maxFuzzCheckpoint)
		}
	}
	return bodies, cfg
}

// withCRC is body with its CRC-32 appended, in a new array.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.ChecksumIEEE(body))
}

// FuzzRestoreFleet drives arbitrary checkpoints through the whole
// restore path: the snapshot reader, then every layer's restore
// validation. The input is the file body; the harness appends its
// CRC-32, so a mutation reaches the decoders and validators instead of
// stopping at the checksum. No input may panic or hang; an error
// returns no fleet; an accepted input gives a fleet that checkpoints
// again, and that checkpoint restores.
func FuzzRestoreFleet(f *testing.F) {
	bodies, cfg := fuzzSeeds(f)
	for _, b := range bodies {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxFuzzCheckpoint {
			return
		}
		fl, err := RestoreFleet(bytes.NewReader(withCRC(body)), cfg)
		if err != nil {
			if fl != nil {
				t.Fatalf("restore failed (%v) but returned a fleet", err)
			}
			return
		}
		var again bytes.Buffer
		err = fl.Snapshot(&again)
		fl.Close()
		if err != nil {
			t.Fatalf("checkpoint of a restored fleet: %v", err)
		}
		fl, err = RestoreFleet(&again, cfg)
		if err != nil {
			t.Fatalf("checkpoint of a restored fleet does not restore: %v", err)
		}
		fl.Close()
	})
}
