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
// engine. It keeps the station's contract — the initial table goes to
// the sink's Provisioner until End-of-RIB or TableSettle of quiet, live
// UPDATEs are batched through one event.Builder, a quiet stream is
// ticked — all on Run's goroutine.
type Source struct {
	// Peer attributes every event (the session's PeerAS and PeerID).
	Peer event.PeerKey
	// Updates is the session's UPDATE stream (Session.Updates). Run
	// returns once it closes. Required.
	Updates <-chan *bgp.Update
	// TableSettle of quiet ends a table transfer without End-of-RIB; a
	// quarter of it paces the quiet-stream ticks. Default 3 s.
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
		settle = 3 * time.Second
	}
	prov, _ := sink.(event.Provisioner)
	syncing := prov != nil && !prov.Provisioned(s.Peer)
	if fast, ok := sink.(event.PeerSink); ok {
		sink = fast.PeerSink(s.Peer)
	}
	out := event.NewBuilder(sink, 0)
	var clock event.StreamClock
	learned, live := 0, false
	lastMsg := time.Now()
	provision := func() {
		syncing = false
		if err := prov.Provision(s.Peer); err != nil {
			s.logf("bgpd: peer %s provision failed after %d routes: %v", s.Peer, learned, err)
			return
		}
		s.logf("bgpd: peer %s provisioned (%d routes learned)", s.Peer, learned)
	}

	ticker := time.NewTicker(settle / 4)
	defer ticker.Stop()
	for {
		select {
		case u, ok := <-s.Updates:
			if !ok {
				return out.Flush()
			}
			lastMsg = time.Now()
			if syncing {
				// End-of-RIB (RFC 4724) is an UPDATE with no withdrawn
				// routes and no NLRI. Withdrawals during a table transfer
				// carry no signal.
				if len(u.NLRI) == 0 && len(u.Withdrawn) == 0 {
					provision()
				}
				for _, p := range u.NLRI {
					prov.Learn(s.Peer, p, u.Attrs.ASPath)
					learned++
				}
				continue
			}
			at := clock.Offset(lastMsg)
			live = true
			for u != nil {
				if err := out.Update(s.Peer, at, u.Withdrawn, u.NLRI, u.Attrs.ASPath); err != nil {
					return err
				}
				select {
				case u = <-s.Updates: // nil once the session closed the channel
				default:
					u = nil
				}
			}
			if err := out.Flush(); err != nil {
				return err
			}
		case now := <-ticker.C:
			quiet := now.Sub(lastMsg)
			switch {
			case syncing:
				if learned > 0 && quiet >= settle {
					provision()
				}
			case live && quiet >= settle/4:
				// Advance the sink's clock past the quiet gap so its burst
				// detector can declare the burst over.
				if err := out.Tick(s.Peer, clock.Offset(now)); err != nil {
					return err
				}
			}
		}
	}
}

func (s *Source) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}
