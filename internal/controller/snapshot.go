package controller

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"swift/internal/snapshot"
	swiftengine "swift/internal/swift"
)

// Snapshot serializes the whole fleet to w in the warm-restart wire
// format: the shared intern pool plus every live peer engine's state.
//
// The cut is consistent: Sync first drains everything already enqueued,
// then the fleet quiesces — all stripe locks (no peers appear or
// disappear) and then every peer lock in key order (no engine mutates).
// Writers that race the quiesce simply block: deliveries park on the
// peer lock inside their shard worker, lookups park on the stripe
// locks, and both resume when the export is done. Nothing here waits on
// a worker or the fusion pump while holding a lock, so the blocking is
// one-way.
//
// The export streams: the pool, then each peer in key order, is
// exported and written as its own section, so at most one peer's image
// is alive beside the fleet, never a copy of the whole fleet.
func (f *Fleet) Snapshot(w io.Writer) error {
	if f.closed.Load() {
		return ErrClosed
	}
	f.Sync()
	for i := range f.stripes {
		f.stripes[i].mu.Lock()
		defer f.stripes[i].mu.Unlock()
	}
	peers := make([]*FleetPeer, 0, 16)
	for i := range f.stripes {
		for _, p := range f.stripes[i].peers {
			// A closing peer's engine is about to be released on its
			// shard worker; its session is gone, so it has no place in
			// a warm restart.
			if !p.closing.Load() {
				peers = append(peers, p)
			}
		}
	}
	sortPeers(peers)
	for _, p := range peers {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	pool := f.pool.Export()
	sw, err := snapshot.NewWriter(w, &pool)
	if err != nil {
		return err
	}
	for _, p := range peers {
		img := snapshot.PeerImage{Key: p.key, State: p.engine.ExportState()}
		if err := sw.Peer(&img); err != nil {
			return err
		}
	}
	return sw.Close()
}

// RestoreFleet builds a running fleet from a snapshot stream without
// re-ingesting any dump: the pool's dense path ids are re-seated
// exactly, each peer's engine is rebuilt around them, and the compiled
// schemes and provisioned FIBs load verbatim. cfg plays the same role
// as in NewFleet except that OnPeer is not called for restored peers —
// the state it would preload (alternate RIBs) is in the snapshot.
//
// The Engine factory must leave Config.Pool unset (or set it to the
// fleet pool it cannot know yet): snapshot path ids only mean anything
// against the shared pool the image was taken from.
//
// On error the partially built fleet is closed and the error returned;
// the caller falls back to a cold start. A stream the snapshot reader
// or a layer's restore validation rejects fails with an error wrapping
// snapshot.ErrCorrupt (or snapshot.ErrVersion).
func RestoreFleet(r io.Reader, cfg FleetConfig) (*Fleet, error) {
	img, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	f := NewFleet(cfg)
	if err := f.restore(img); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (f *Fleet) restore(img *snapshot.FleetImage) error {
	if err := f.pool.Restore(img.Pool); err != nil {
		return fmt.Errorf("%w: %w", snapshot.ErrCorrupt, err)
	}
	for i := range img.Peers {
		if err := f.restorePeer(&img.Peers[i]); err != nil {
			return fmt.Errorf("controller: restore peer %s: %w", img.Peers[i].Key, err)
		}
	}
	// Close the pool's restore window: every table has taken its path
	// references, so anything still unreferenced was only live in the
	// snapshot via state we do not restore.
	f.pool.PruneUnreferenced()
	f.logf("fleet: restored %d peers, %d paths", len(img.Peers), f.pool.Len())
	return nil
}

// restorePeer is Peer()'s creation path with RestoreState in place of
// the OnPeer hook. The fleet is private to the restoring goroutine, so
// there is no creation race to double-check against.
func (f *Fleet) restorePeer(pi *snapshot.PeerImage) error {
	key := pi.Key
	cfg := f.engineConfig(key)
	if cfg.Pool != f.pool {
		return fmt.Errorf("engine factory supplied a private pool; snapshot ids are against the fleet pool")
	}
	p := &FleetPeer{
		key:    key,
		fleet:  f,
		worker: f.worker(key),
	}
	cfg.Observer = f.wireObserver(p, cfg.Observer)
	p.engine = swiftengine.New(cfg)
	if err := p.engine.RestoreState(pi.State); err != nil {
		return fmt.Errorf("%w: %w", snapshot.ErrCorrupt, err)
	}
	if pi.State.RerouteActive {
		// Seed the aggregate gauge the observer normally maintains.
		p.rerouting = true
		f.rerouting.Add(1)
	}
	s := f.stripe(key)
	s.mu.Lock()
	s.peers[key] = p
	s.mu.Unlock()
	return nil
}

func sortPeers(peers []*FleetPeer) {
	slices.SortFunc(peers, func(a, b *FleetPeer) int {
		return cmp.Or(cmp.Compare(a.key.AS, b.key.AS), cmp.Compare(a.key.BGPID, b.key.BGPID))
	})
}
