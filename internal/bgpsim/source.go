package bgpsim

import (
	"errors"
	"time"

	"swift/internal/event"
)

// BurstSource replays one or more simulated bursts as the shared event
// stream — the synthetic counterpart of a live BMP feed or an MRT
// archive, so evaluation workloads drive an Engine or a Fleet through
// exactly the pipeline a real deployment uses.
type BurstSource struct {
	// Bursts are replayed in order, each shifted by Spacing from the
	// previous burst's end.
	Bursts []*Burst
	// Spacing separates consecutive bursts on the stream clock
	// (default one hour — far past any burst-detection window, so each
	// burst is detected independently).
	Spacing time.Duration
	// Peer attributes the emitted events (zero is fine for
	// single-session sinks).
	Peer event.PeerKey
	// Peers, when non-empty, switches the source to multi-peer
	// interleaved replay (Peer is then ignored): bursts are assigned
	// round-robin across the peers, each wave of len(Peers) bursts
	// shares one timeline, and the waves' events are merged by
	// timestamp into mixed-peer batches — the event interleaving a
	// fleet sees from concurrently-bursting sessions, rather than one
	// synthetic peer's serial stream. Per-peer relative order is
	// preserved; each peer gets its own closing tick.
	Peers []event.PeerKey
	// BatchEvents caps how many events one batch carries (default 512).
	BatchEvents int
	// FinalTick, when positive, emits one closing tick this far past
	// the last event so the sink closes any burst still open (default
	// one minute; set negative to suppress).
	FinalTick time.Duration

	// Events counts the per-prefix events emitted by the last Run.
	Events int
}

var _ event.Source = (*BurstSource)(nil)

func (s *BurstSource) batchEvents() int {
	if s.BatchEvents <= 0 {
		return 512
	}
	return s.BatchEvents
}

func (s *BurstSource) spacing() time.Duration {
	if s.Spacing <= 0 {
		return time.Hour
	}
	return s.Spacing
}

// Run pushes every burst's withdrawals and announcements into sink as
// ordered event batches. Bursts replay round-robin across Peers, or
// Peer alone when Peers is empty: every wave of one burst per peer
// shares one base offset, and the wave's per-peer streams are k-way
// merged by timestamp (ties broken by peer position). With one peer
// every wave is a single burst, so bursts replay serially.
func (s *BurstSource) Run(sink event.Sink) error {
	if len(s.Bursts) == 0 {
		return errors.New("bgpsim: BurstSource has no bursts")
	}
	peers := s.Peers
	if len(peers) == 0 {
		peers = []event.PeerKey{s.Peer}
	}
	s.Events = 0
	batch := make(event.Batch, 0, s.batchEvents())
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		b := batch
		batch = make(event.Batch, 0, cap(b))
		return sink.Apply(b)
	}
	var base, last time.Duration
	for wave := 0; wave*len(peers) < len(s.Bursts); wave++ {
		if wave > 0 {
			base = last + s.spacing()
		}
		bursts := s.Bursts[wave*len(peers):]
		if len(bursts) > len(peers) {
			bursts = bursts[:len(peers)]
		}
		// K-way merge of the wave's streams by event timestamp.
		idx := make([]int, len(bursts))
		for {
			pick := -1
			var at time.Duration
			for i, b := range bursts {
				if idx[i] >= len(b.Events) {
					continue
				}
				if evAt := base + b.Events[idx[i]].At; pick < 0 || evAt < at {
					pick, at = i, evAt
				}
			}
			if pick < 0 {
				break
			}
			ev := bursts[pick].Events[idx[pick]]
			idx[pick]++
			peer := peers[pick]
			if ev.Kind == KindWithdraw {
				batch = append(batch, event.Withdraw(at, ev.Prefix).WithPeer(peer))
			} else {
				batch = append(batch, event.Announce(at, ev.Prefix, ev.Path).WithPeer(peer))
			}
			s.Events++
			if at > last {
				last = at
			}
			if len(batch) >= s.batchEvents() {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	tick := s.FinalTick
	if tick == 0 {
		tick = time.Minute
	}
	if tick > 0 {
		final := make(event.Batch, 0, len(peers))
		for _, peer := range peers {
			final = append(final, event.Tick(last+tick).WithPeer(peer))
		}
		return sink.Apply(final)
	}
	return nil
}
