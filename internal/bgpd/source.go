package bgpd

import (
	"errors"
	"time"

	"swift/internal/bgp"
	"swift/internal/event"
)

// Source is the eBGP front-end as an event.Source, beside bmp.Station
// and mrt.Source: it lowers one session's UPDATEs into batches
// attributed to Peer, for a Fleet or (through swift.SessionSink) one
// engine. The session runs through one event.Feed, the same per-peer
// front half as each BMP-monitored peer: the initial table goes to the
// sink's Provisioner until End-of-RIB or TableSettle of quiet, live
// UPDATEs are batched through one event.Builder, and a quiet stream is
// ticked, all on Run's goroutine. eBGP carries no timestamps, so stream
// offsets count arrival time from the session's first UPDATE.
type Source struct {
	// Peer attributes every event (the session's PeerAS and PeerID).
	Peer event.PeerKey
	// Updates is the session's UPDATE stream (Session.Updates). Run
	// returns once it closes. Required.
	Updates <-chan *bgp.Update
	// TableSettle of quiet ends a table transfer without End-of-RIB; a
	// quarter of it paces the quiet-stream ticks. Default
	// event.DefaultTableSettle.
	TableSettle time.Duration
	// Logf, when set, receives one line per source event.
	Logf func(format string, args ...any)
}

var _ event.Source = (*Source)(nil)

// Run feeds the session's stream into sink until Updates closes, or
// until the sink fails, returning its error.
func (s *Source) Run(sink event.Sink) error {
	if s.Updates == nil {
		return errors.New("bgpd: Source.Updates is required")
	}
	settle := s.TableSettle
	if settle <= 0 {
		settle = event.DefaultTableSettle
	}
	feed := event.NewFeed(sink, s.Peer, &event.StreamClock{}, time.Now(), s.logf)
	ticker := time.NewTicker(settle / 4)
	defer ticker.Stop()
	for {
		select {
		case u, ok := <-s.Updates:
			if !ok {
				return feed.Flush()
			}
			// Everything queued behind the first UPDATE is one burst:
			// one clock read, one flush.
			now := time.Now()
			for u != nil {
				if err := feed.Update(time.Time{}, now, u.Withdrawn, u.NLRI, u.Attrs.ASPath); err != nil {
					return err
				}
				select {
				case u = <-s.Updates: // nil once the session closed the channel
				default:
					u = nil
				}
			}
			if err := feed.Flush(); err != nil {
				return err
			}
		case now := <-ticker.C:
			if err := feed.Quiet(now, settle); err != nil {
				return err
			}
		}
	}
}

func (s *Source) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf("bgpd: "+format, args...)
	}
}
