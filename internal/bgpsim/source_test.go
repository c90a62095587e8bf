package bgpsim

import (
	"math/rand"
	"testing"
	"time"

	"swift/internal/event"
	"swift/internal/netaddr"
)

// recordSink flattens every applied batch for inspection.
type recordSink struct{ events []event.Event }

func (r *recordSink) Apply(b event.Batch) error {
	r.events = append(r.events, b...)
	return nil
}

func syntheticBurst(base int, n int) *Burst {
	b := &Burst{Vantage: 1, Neighbor: 2}
	for i := 0; i < n; i++ {
		b.Events = append(b.Events, Event{
			At:     time.Duration(base+i*10) * time.Millisecond,
			Kind:   KindWithdraw,
			Prefix: netaddr.PrefixFor(uint32(8+base), i),
		})
		b.Size++
	}
	return b
}

// TestBurstSourceMultiPeerInterleaves pins the multi-peer replay
// contract: bursts assign round-robin to peers, one wave's events merge
// by timestamp into mixed-peer batches, each peer's relative order is
// preserved exactly, and every peer gets a closing tick.
func TestBurstSourceMultiPeerInterleaves(t *testing.T) {
	peers := []event.PeerKey{{AS: 2, BGPID: 1}, {AS: 3, BGPID: 2}}
	// Offsets 0 and 5ms so the two streams strictly interleave.
	b0, b1 := syntheticBurst(0, 8), syntheticBurst(5, 8)
	src := &BurstSource{Bursts: []*Burst{b0, b1}, Peers: peers, BatchEvents: 4}
	var sink recordSink
	if err := src.Run(&sink); err != nil {
		t.Fatal(err)
	}
	if src.Events != 16 {
		t.Fatalf("Events = %d, want 16", src.Events)
	}

	var perPeer [2][]event.Event
	ticks := map[event.PeerKey]int{}
	lastAt := time.Duration(-1)
	for _, ev := range sink.events {
		if ev.At < lastAt {
			t.Fatalf("stream goes back in time: %v after %v", ev.At, lastAt)
		}
		lastAt = ev.At
		if ev.Kind == event.KindTick {
			ticks[ev.Peer]++
			continue
		}
		switch ev.Peer {
		case peers[0]:
			perPeer[0] = append(perPeer[0], ev)
		case peers[1]:
			perPeer[1] = append(perPeer[1], ev)
		default:
			t.Fatalf("event attributed to unknown peer %v", ev.Peer)
		}
	}
	for i, want := range []*Burst{b0, b1} {
		if len(perPeer[i]) != len(want.Events) {
			t.Fatalf("peer %d got %d events, want %d", i, len(perPeer[i]), len(want.Events))
		}
		for j, ev := range perPeer[i] {
			if ev.Prefix != want.Events[j].Prefix || ev.At != want.Events[j].At {
				t.Fatalf("peer %d event %d = %+v, want prefix %v at %v",
					i, j, ev, want.Events[j].Prefix, want.Events[j].At)
			}
		}
	}
	// The two streams must actually interleave (not replay serially).
	first, mixed := sink.events[0].Peer, false
	for _, ev := range sink.events[:8] {
		if ev.Peer != first {
			mixed = true
			break
		}
	}
	if !mixed {
		t.Fatal("first wave replayed serially; expected timestamp interleaving")
	}
	for _, peer := range peers {
		if ticks[peer] != 1 {
			t.Fatalf("peer %v got %d closing ticks, want 1", peer, ticks[peer])
		}
	}
}

// TestBurstSourceMultiPeerWaves checks that more bursts than peers roll
// into later waves, spaced past the detection window.
func TestBurstSourceMultiPeerWaves(t *testing.T) {
	peers := []event.PeerKey{{AS: 2, BGPID: 1}, {AS: 3, BGPID: 2}}
	src := &BurstSource{
		Bursts: []*Burst{syntheticBurst(0, 4), syntheticBurst(0, 4), syntheticBurst(0, 4)},
		Peers:  peers,
		// Default spacing (1h) applies between waves.
	}
	var sink recordSink
	if err := src.Run(&sink); err != nil {
		t.Fatal(err)
	}
	if src.Events != 12 {
		t.Fatalf("Events = %d, want 12", src.Events)
	}
	// Third burst (wave 2) goes to peers[0] again, one spacing later.
	var wave2 []event.Event
	for _, ev := range sink.events {
		if ev.Kind != event.KindTick && ev.At >= time.Hour {
			wave2 = append(wave2, ev)
		}
	}
	if len(wave2) != 4 {
		t.Fatalf("wave 2 carried %d events, want 4", len(wave2))
	}
	for _, ev := range wave2 {
		if ev.Peer != peers[0] {
			t.Fatalf("wave 2 event on %v, want round-robin back to %v", ev.Peer, peers[0])
		}
	}
}

// TestBurstSourceMultiPeerOrderProperty is the randomized property
// check behind the fused evaluation's determinism: for arbitrary
// per-peer bursts — uneven sizes, arbitrary start skew, duplicate
// timestamps within and across peers — the timestamp-merged interleave
// must (1) preserve every peer's relative event order exactly, (2)
// never move the stream clock backwards, (3) conserve the event count,
// and (4) break cross-peer timestamp ties by peer position, so the
// merge is a pure function of the inputs. Every peer also gets exactly
// one closing tick, after its last event. The trials from 64 on replay
// one burst through Peer alone (Peers empty), the single-session
// configuration, which must satisfy the same properties.
func TestBurstSourceMultiPeerOrderProperty(t *testing.T) {
	for trial := 0; trial < 96; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		single := trial >= 64
		nPeers := 2 + rng.Intn(4)
		if single {
			nPeers = 1
		}
		peers := make([]event.PeerKey, nPeers)
		bursts := make([]*Burst, nPeers)
		for i := range peers {
			peers[i] = event.PeerKey{AS: uint32(2 + i), BGPID: uint32(i + 1)}
			b := &Burst{Vantage: 1, Neighbor: peers[i].AS}
			// Arbitrary skew, including zero (tied starts across peers).
			skew := time.Duration(rng.Intn(4)) * 25 * time.Millisecond
			at := skew
			for j, n := 0, 1+rng.Intn(40); j < n; j++ {
				// Coarse steps make cross-peer (and some same-peer)
				// timestamp collisions common rather than exotic.
				at += time.Duration(rng.Intn(3)) * 10 * time.Millisecond
				b.Events = append(b.Events, Event{
					At:     at,
					Kind:   KindWithdraw,
					Prefix: netaddr.PrefixFor(uint32(8+i), j),
				})
				b.Size++
			}
			bursts[i] = b
		}
		src := &BurstSource{Bursts: bursts, Peers: peers, BatchEvents: 1 + rng.Intn(16)}
		if single {
			src.Peer, src.Peers = peers[0], nil
		}
		var sink recordSink
		if err := src.Run(&sink); err != nil {
			t.Fatal(err)
		}

		want := 0
		for _, b := range bursts {
			want += len(b.Events)
		}
		if src.Events != want {
			t.Fatalf("trial %d: Events = %d, want %d", trial, src.Events, want)
		}

		peerIdx := make(map[event.PeerKey]int, nPeers)
		for i, p := range peers {
			peerIdx[p] = i
		}
		next := make([]int, nPeers)
		ticks := make([]int, nPeers)
		lastAt := time.Duration(-1)
		lastPick := -1
		total := 0
		for _, ev := range sink.events {
			i, ok := peerIdx[ev.Peer]
			if !ok {
				t.Fatalf("trial %d: event attributed to unknown peer %v", trial, ev.Peer)
			}
			if ev.Kind == event.KindTick {
				if next[i] != len(bursts[i].Events) || ev.At <= lastAt {
					t.Fatalf("trial %d: peer %d closing tick at %v before its last event", trial, i, ev.At)
				}
				ticks[i]++
				continue
			}
			if ev.At < lastAt {
				t.Fatalf("trial %d: stream clock moved backwards: %v after %v", trial, ev.At, lastAt)
			}
			if ev.At == lastAt && i < lastPick {
				t.Fatalf("trial %d: tie at %v served peer %d after peer %d (ties must follow peer position)",
					trial, ev.At, i, lastPick)
			}
			wantEv := bursts[i].Events[next[i]]
			if ev.Prefix != wantEv.Prefix || ev.At != wantEv.At {
				t.Fatalf("trial %d: peer %d event %d = (%v, %v), want (%v, %v) — per-peer order broken",
					trial, i, next[i], ev.Prefix, ev.At, wantEv.Prefix, wantEv.At)
			}
			next[i]++
			lastAt, lastPick = ev.At, i
			total++
		}
		if total != want {
			t.Fatalf("trial %d: sink saw %d events, want %d", trial, total, want)
		}
		for i := range bursts {
			if next[i] != len(bursts[i].Events) {
				t.Fatalf("trial %d: peer %d delivered %d of %d events", trial, i, next[i], len(bursts[i].Events))
			}
			if ticks[i] != 1 {
				t.Fatalf("trial %d: peer %d got %d closing ticks, want 1", trial, i, ticks[i])
			}
		}
	}
}
