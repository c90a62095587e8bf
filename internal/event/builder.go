package event

import (
	"time"

	"swift/internal/netaddr"
)

const (
	// DefaultBatchEvents is the flush threshold a Builder uses when its
	// source names none.
	DefaultBatchEvents = 512

	// arenaChunkWords sizes one chunk of a Builder's path arena (16 KiB):
	// several hundred UPDATEs' worth of AS paths per allocation.
	arenaChunkWords = 4096
)

// Builder is the one UPDATE→events lowering every source shares: a BMP
// station (one per monitored peer), an MRT replay and an eBGP session's
// source all hand it decoded UPDATEs and it hands their sink ordered
// batches. It owns the pending batch, the flush-at-cap rule and the
// storage behind Event.Path, so a source may pass slices out of a
// decoder it reuses for the next message.
//
// Paths are copied into a chunked, write-once arena: a chunk is filled
// front to back and, once full, abandoned to the garbage collector —
// never rewound or reused. Every Event.Path ever delivered therefore
// stays intact for as long as a sink keeps the batch, at the cost of one
// allocation per chunk instead of one per UPDATE.
//
// A Builder is not safe for concurrent use.
type Builder struct {
	sink    Sink
	limit   int
	pending Batch
	chunk   []uint32
}

// NewBuilder returns a builder delivering to sink in batches of about
// limit events (DefaultBatchEvents when limit <= 0). A batch may exceed
// limit: one UPDATE's events are never split across deliveries.
func NewBuilder(sink Sink, limit int) *Builder {
	if limit <= 0 {
		limit = DefaultBatchEvents
	}
	return &Builder{sink: sink, limit: limit}
}

// Update lowers one UPDATE observed on peer at stream offset at — its
// withdrawn prefixes first, then its announced prefixes, all sharing one
// arena copy of path — and delivers the pending batch once it reaches
// the limit. None of the argument slices is retained.
func (b *Builder) Update(peer PeerKey, at time.Duration, withdrawn, announced []netaddr.Prefix, path []uint32) error {
	for _, p := range withdrawn {
		b.pending = append(b.pending, Event{Kind: KindWithdraw, At: at, Prefix: p, Peer: peer})
	}
	if len(announced) > 0 {
		path = b.own(path)
		for _, p := range announced {
			b.pending = append(b.pending, Event{Kind: KindAnnounce, At: at, Prefix: p, Path: path, Peer: peer})
		}
	}
	if len(b.pending) >= b.limit {
		return b.Flush()
	}
	return nil
}

// own copies path into the arena. The result's capacity equals its
// length, so even a sink that (wrongly) appends to a Path cannot reach
// its neighbour.
func (b *Builder) own(path []uint32) []uint32 {
	n := len(path)
	if n == 0 {
		return nil
	}
	if n > cap(b.chunk)-len(b.chunk) {
		b.chunk = make([]uint32, 0, max(n, arenaChunkWords))
	}
	off := len(b.chunk)
	b.chunk = append(b.chunk, path...)
	return b.chunk[off : off+n : off+n]
}

// Tick closes the pending batch with a clock-advance event for peer and
// delivers it: a tick exists to be acted on now.
func (b *Builder) Tick(peer PeerKey, at time.Duration) error {
	b.pending = append(b.pending, Event{Kind: KindTick, At: at, Peer: peer})
	return b.Flush()
}

// Flush delivers the pending batch, if any. The batch belongs to the
// sink from then on (a Fleet queues it behind a ring), so the builder
// starts a fresh one of the same capacity.
func (b *Builder) Flush() error {
	if len(b.pending) == 0 {
		return nil
	}
	out := b.pending
	b.pending = make(Batch, 0, cap(out))
	return b.sink.Apply(out)
}
