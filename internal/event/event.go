// Package event defines the one vocabulary every SWIFT stream speaks.
//
// The paper's workflow (§3) is a pipeline: a BGP message stream flows
// in, burst/inference state evolves, reroute decisions come out. Every
// transport in this repo — a live BMP feed, an MRT replay, a synthetic
// burst, a test harness — reduces its input to the same three event
// kinds (withdraw, announce, tick) and hands them to a Sink in ordered
// Batches. Engines and engine fleets are Sinks; feeds are Sources; the
// stream itself is the API.
//
// Events are peer-attributed so that single-session sinks (one Engine)
// and collector-scale sinks (a Fleet demuxing per peer) are fed by the
// same sources unchanged: an Engine ignores Event.Peer, a Fleet routes
// on it.
package event

import (
	"fmt"
	"sync"
	"time"

	"swift/internal/netaddr"
)

// Kind discriminates the three stream event flavours.
type Kind uint8

const (
	// KindWithdraw is one withdrawn prefix.
	KindWithdraw Kind = iota
	// KindAnnounce is one announced (or re-announced) prefix with its
	// AS path.
	KindAnnounce
	// KindTick carries no message: it only advances the stream clock,
	// letting burst detectors close bursts when a stream goes quiet.
	KindTick
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindWithdraw:
		return "withdraw"
	case KindAnnounce:
		return "announce"
	case KindTick:
		return "tick"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// PeerKey identifies the BGP session an event was observed on: the
// (AS, BGP identifier) pair, unique per monitored router. The zero key
// is valid and means "the only session" for single-session streams.
type PeerKey struct {
	AS    uint32
	BGPID uint32
}

// String renders the key as "AS65010/0a000001".
func (k PeerKey) String() string { return fmt.Sprintf("AS%d/%08x", k.AS, k.BGPID) }

// Event is one observation on a BGP session's stream.
type Event struct {
	// At is the event's offset on the session's stream clock.
	At time.Duration
	// Prefix is the subject prefix (withdraw/announce only).
	Prefix netaddr.Prefix
	// Path is the announced AS path; nil for withdrawals and ticks.
	// Announce events of one UPDATE share one backing array, which
	// stays intact for as long as anything references it: a sink may
	// keep a Path, but must not write to it or append to it.
	Path []uint32
	// Peer attributes the event to its session. Single-session sinks
	// ignore it; fleet sinks demultiplex on it.
	Peer PeerKey
	// Kind selects withdraw, announce or tick.
	Kind Kind
}

// Withdraw builds a withdrawal event.
func Withdraw(at time.Duration, p netaddr.Prefix) Event {
	return Event{Kind: KindWithdraw, At: at, Prefix: p}
}

// Announce builds an announcement event. The path is retained, not
// copied, and must never change afterwards (see Event.Path). Sources
// lowering decoded UPDATEs do not call this: they hand the decoder's
// reused buffers to a Builder, which owns the copy.
func Announce(at time.Duration, p netaddr.Prefix, path []uint32) Event {
	return Event{Kind: KindAnnounce, At: at, Prefix: p, Path: path}
}

// Tick builds a clock-advance event.
func Tick(at time.Duration) Event {
	return Event{Kind: KindTick, At: at}
}

// WithPeer returns a copy of the event attributed to peer.
func (e Event) WithPeer(peer PeerKey) Event {
	e.Peer = peer
	return e
}

// Batch is an ordered group of events applied in one hand-off. Batching
// is the pipeline's unit of amortization: a sink pays its per-delivery
// setup once per batch instead of once per message.
type Batch []Event

// Sink consumes event batches. Both the single-session Engine and the
// collector-scale Fleet satisfy it, so sources feed either unchanged.
//
// Apply must observe events in batch order. Whether application is
// synchronous (Engine) or queued behind a delivery goroutine (Fleet) is
// the sink's business; callers needing a barrier use the sink's own
// synchronization (e.g. Fleet.Sync).
type Sink interface {
	Apply(Batch) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Batch) error

// Apply calls f.
func (f SinkFunc) Apply(b Batch) error { return f(b) }

// Source pushes a stream of event batches into a sink until the stream
// is exhausted or the sink fails. A Source owns segmentation (how many
// events per batch) and the stream clock (each event's At). The
// front-ends are bmp.Station (live BMP feeds), mrt.Source (archives)
// and bgpd.Source (one live eBGP session); bgpsim.BurstSource replays
// synthetic bursts.
type Source interface {
	Run(Sink) error
}

// PeerSink is an optional fast-path surface of a Sink: a sink that can
// bind a dedicated sub-sink for one peer's events. Sources that demux
// per peer anyway (a BMP station's per-peer streams) bind once at
// stream setup and skip the per-batch peer routing; the returned sink
// must only be fed that peer's events.
type PeerSink interface {
	PeerSink(peer PeerKey) Sink
}

// Provisioner is the optional setup surface of a Sink. Sources that
// carry an initial table transfer (a BMP table dump, an MRT RIB
// snapshot) load routes and compile the reroute plan through it before
// streaming live events. Sinks that don't implement it are assumed to
// be provisioned out-of-band.
type Provisioner interface {
	// Learn installs one initial-table route on the peer's primary RIB.
	// path is the caller's to reuse once Learn returns: implementations
	// intern or copy it.
	Learn(peer PeerKey, p netaddr.Prefix, path []uint32)
	// Provisioned reports whether the peer's reroute plan is compiled.
	Provisioned(peer PeerKey) bool
	// Provision compiles the peer's plan from the routes learned so far.
	Provision(peer PeerKey) error
}

// StreamClock converts a source's wall-clock timestamps into the
// monotonic stream offsets events carry. The epoch anchors at the first
// timestamp ever seen and persists for the clock's lifetime — across
// source reconnects — and offsets never run backwards, so a flapping
// session or a router clock step cannot rewind an engine's burst
// detector. The zero value is ready to use.
type StreamClock struct {
	mu        sync.Mutex
	epoch     time.Time
	haveEpoch bool
	last      time.Duration
}

// Offset converts ts into a non-decreasing stream offset.
func (c *StreamClock) Offset(ts time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.haveEpoch {
		c.epoch = ts
		c.haveEpoch = true
	}
	off := ts.Sub(c.epoch)
	if off < c.last {
		off = c.last
	}
	c.last = off
	return off
}
