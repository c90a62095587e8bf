package mrt

import (
	"errors"
	"fmt"
	"io"
	"time"

	"swift/internal/bgp"
	"swift/internal/event"
)

// Source replays MRT collector archives as the shared event stream —
// the artifact pair RouteViews publishes (a TABLE_DUMP_V2 RIB snapshot
// plus a BGP4MP update file) becomes an event.Source that feeds any
// sink: one Engine (via swift.SessionSink) or a whole Fleet,
// unchanged. The optional RIB snapshot is loaded through the sink's
// event.Provisioner surface before streaming, mirroring the in-band
// table dump a live BMP feed carries.
type Source struct {
	// Updates is the BGP4MP update stream. Required.
	Updates io.Reader
	// RIB, when set, is a TABLE_DUMP_V2 snapshot loaded and provisioned
	// before the update stream (the "before the outage" half of the
	// paper's Fig. 3). It requires Peer and a sink implementing
	// event.Provisioner.
	RIB io.Reader
	// Peer attributes the emitted events. The zero key attributes each
	// event to its record's collector peer (AS from the BGP4MP header,
	// BGP identifier from the peer IP).
	Peer event.PeerKey
	// Epoch anchors the stream clock; events carry At = ts - Epoch.
	// Zero selects the first update record's timestamp.
	Epoch time.Time
	// FinalTick, when positive, emits one closing tick this far past
	// the last event, so the sink's burst detectors close any burst
	// still open at end of archive.
	FinalTick time.Duration

	// Events counts the per-prefix events emitted by the last Run
	// (ticks excluded).
	Events int
	// Routes counts the RIB snapshot routes loaded by the last Run.
	Routes int
}

var _ event.Source = (*Source)(nil)

// Run loads the snapshot (when configured), then pushes the update
// stream into sink as timestamped event batches until the archive is
// exhausted or the sink fails.
func (s *Source) Run(sink event.Sink) error {
	if s.Updates == nil {
		return errors.New("mrt: Source.Updates is required")
	}
	s.Events, s.Routes = 0, 0
	if s.RIB != nil {
		if err := s.loadRIB(sink); err != nil {
			return err
		}
	}

	r := NewReader(s.Updates)
	var dec bgp.UpdateDecoder
	out := event.NewBuilder(sink, 0)
	epoch := s.Epoch
	lastAt := time.Duration(-1)
	// Peers seen, in first-seen order, so a FinalTick closes every
	// peer's bursts — not just the last record's.
	seen := make(map[event.PeerKey]struct{})
	var order []event.PeerKey
	for {
		m, err := r.NextBGP4MP()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if m.Header.Type != bgp.TypeUpdate {
			continue
		}
		if err := dec.Decode(m.Body); err != nil {
			return fmt.Errorf("mrt: update at %v: %w", m.Timestamp, err)
		}
		if epoch.IsZero() {
			epoch = m.Timestamp
		}
		at := m.Timestamp.Sub(epoch)
		key := s.Peer
		if key == (event.PeerKey{}) {
			key = event.PeerKey{AS: m.PeerAS, BGPID: m.PeerIP}
		}
		if err := out.Update(key, at, dec.Withdrawn, dec.NLRI, dec.Attrs.ASPath); err != nil {
			return err
		}
		s.Events += len(dec.Withdrawn) + len(dec.NLRI)
		lastAt = at
		if _, ok := seen[key]; !ok {
			seen[key] = struct{}{}
			order = append(order, key)
		}
	}
	if s.FinalTick > 0 && lastAt >= 0 {
		for _, key := range order {
			if err := out.Tick(key, lastAt+s.FinalTick); err != nil {
				return err
			}
		}
	}
	return out.Flush()
}

// loadRIB drains the TABLE_DUMP_V2 snapshot into the sink's
// Provisioner surface and compiles the peer's plan. Each record's
// decoded AS path is handed to Learn, which interns it into the
// engine's path pool: a full-table dump provisions as one canonical
// copy per unique path (plus the Prefix→PathID route map), not one
// slice per prefix, and the per-record decode allocations die young.
// Fleet sinks share one pool across peers, so replaying several
// vantage dumps stores their overlapping paths once.
func (s *Source) loadRIB(sink event.Sink) error {
	if s.Peer == (event.PeerKey{}) {
		return errors.New("mrt: Source.RIB requires explicit Peer attribution")
	}
	prov, ok := sink.(event.Provisioner)
	if !ok {
		return fmt.Errorf("mrt: sink %T cannot load a RIB snapshot (no Provisioner surface)", sink)
	}
	// The reusing walker recycles record and attribute buffers across
	// records; Learn interns each path into the sink's pool, copying it
	// only on first sight, so provisioning a full-table dump costs one
	// canonical path copy per unique path.
	err := WalkRIBIPv4Reuse(s.RIB, func(rr *RIBRecord) error {
		for i := range rr.Entries {
			prov.Learn(s.Peer, rr.Prefix, rr.Entries[i].Attrs.ASPath)
			s.Routes++
		}
		return nil
	})
	if err != nil {
		return err
	}
	return prov.Provision(s.Peer)
}
