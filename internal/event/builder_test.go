package event

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"swift/internal/netaddr"
)

// delivered is one batch as the sink saw it, with a private copy of
// every path taken at delivery.
type delivered struct {
	batch Batch
	paths [][]uint32
}

// TestBuilderArenaIsWriteOnce is the retention property: a sink on
// another goroutine keeps every batch it is handed while the source
// goes on reusing its decode buffers for well over 100k further
// messages. Every retained Event.Path must still equal the copy taken
// at delivery (a rewound or recycled arena chunk would show here, and
// under -race as a write racing the verifier's reads), the announce
// events of one UPDATE must share one backing array, one UPDATE must
// never straddle two batches, and batches must flush at the limit.
func TestBuilderArenaIsWriteOnce(t *testing.T) {
	const (
		messages = 130_000
		limit    = 64
	)
	feed := make(chan delivered, 16) // keeps source and verifier running concurrently
	done := make(chan []delivered)
	go func() {
		rng := rand.New(rand.NewSource(1))
		var kept []delivered
		for d := range feed {
			kept = append(kept, d)
			// Re-read an arbitrary older batch while the source keeps
			// writing into the arena.
			old := kept[rng.Intn(len(kept))]
			for i, ev := range old.batch {
				if !slices.Equal(ev.Path, old.paths[i]) {
					t.Errorf("retained path changed: %v, was %v", ev.Path, old.paths[i])
				}
			}
		}
		done <- kept
	}()

	b := NewBuilder(SinkFunc(func(batch Batch) error {
		d := delivered{batch: batch, paths: make([][]uint32, len(batch))}
		for i, ev := range batch {
			d.paths[i] = slices.Clone(ev.Path)
		}
		feed <- d
		return nil
	}), limit)

	// The source owns three reusable buffers, like a wire decoder, and
	// scribbles over them after every message.
	src := rand.New(rand.NewSource(2))
	var withdrawn, announced []netaddr.Prefix
	var path []uint32
	peer := PeerKey{AS: 65010, BGPID: 1}
	events := 0
	for m := 0; m < messages; m++ {
		withdrawn, announced, path = withdrawn[:0], announced[:0], path[:0]
		for i := src.Intn(4); i > 0; i-- {
			withdrawn = append(withdrawn, netaddr.PrefixFor(uint32(1+src.Intn(50)), src.Intn(100)))
		}
		for i := src.Intn(4); i > 0; i-- {
			announced = append(announced, netaddr.PrefixFor(uint32(1+src.Intn(50)), src.Intn(100)))
		}
		hops := src.Intn(9) // includes the empty path
		if src.Intn(2000) == 0 {
			hops = arenaChunkWords + 5 // longer than a whole chunk
		}
		for i := 0; i < hops; i++ {
			path = append(path, uint32(src.Intn(70000)))
		}
		// At is the message number, which lets the checks below group
		// events by UPDATE.
		if err := b.Update(peer, time.Duration(m), withdrawn, announced, path); err != nil {
			t.Fatal(err)
		}
		events += len(withdrawn) + len(announced)
		for i := range path {
			path[i] = 0xdeadbeef
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	close(feed)
	kept := <-done

	got, lastAt := 0, time.Duration(-1)
	for n, d := range kept {
		got += len(d.batch)
		first := d.batch[0].At
		if first <= lastAt {
			t.Fatalf("batch %d starts inside UPDATE %d, which the previous batch already carried", n, first)
		}
		lastAt = d.batch[len(d.batch)-1].At
		if n < len(kept)-1 {
			beforeLast := 0
			for _, ev := range d.batch {
				if ev.At != lastAt {
					beforeLast++
				}
			}
			if len(d.batch) < limit || beforeLast >= limit {
				t.Fatalf("batch %d has %d events (%d before its last UPDATE), limit %d", n, len(d.batch), beforeLast, limit)
			}
		}
		for i, ev := range d.batch {
			if ev.Peer != peer {
				t.Fatalf("event attributed to %v", ev.Peer)
			}
			if !slices.Equal(ev.Path, d.paths[i]) {
				t.Fatalf("batch %d event %d: path %v, was %v at delivery", n, i, ev.Path, d.paths[i])
			}
			if ev.Kind != KindAnnounce {
				if ev.Path != nil {
					t.Fatalf("%v event carries a path", ev.Kind)
				}
				continue
			}
			if cap(ev.Path) != len(ev.Path) {
				t.Fatalf("path has spare capacity %d: an append would reach its neighbour", cap(ev.Path)-len(ev.Path))
			}
			if i > 0 && d.batch[i-1].Kind == KindAnnounce && d.batch[i-1].At == ev.At && len(ev.Path) > 0 &&
				&d.batch[i-1].Path[0] != &ev.Path[0] {
				t.Fatalf("announce events of UPDATE %d do not share one backing array", ev.At)
			}
		}
	}
	if got != events {
		t.Fatalf("sink saw %d events, source lowered %d", got, events)
	}
}

// TestBuilderTick: a tick closes and delivers the pending batch.
func TestBuilderTick(t *testing.T) {
	var got []Batch
	b := NewBuilder(SinkFunc(func(batch Batch) error {
		got = append(got, batch)
		return nil
	}), 0)
	p := netaddr.MustParsePrefix("192.0.2.0/24")
	peer := PeerKey{AS: 1, BGPID: 2}
	if err := b.Update(peer, time.Second, []netaddr.Prefix{p}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("one event delivered before the limit of %d", DefaultBatchEvents)
	}
	if err := b.Tick(peer, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil || len(got) != 1 {
		t.Fatalf("after tick and an empty flush: %d batches, err %v", len(got), err)
	}
	want := Batch{Withdraw(time.Second, p).WithPeer(peer), Tick(2 * time.Second).WithPeer(peer)}
	if !slices.EqualFunc(got[0], want, func(a, b Event) bool {
		return a.Kind == b.Kind && a.At == b.At && a.Prefix == b.Prefix && a.Peer == b.Peer && a.Path == nil
	}) {
		t.Errorf("batch = %+v, want %+v", got[0], want)
	}
}
