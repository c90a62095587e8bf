package event

import (
	"time"

	"swift/internal/netaddr"
)

// DefaultTableSettle is the quiet period after which a Feed still
// waiting for End-of-RIB provisions its peer anyway: routers predating
// RFC 4724 never send the marker.
const DefaultTableSettle = 3 * time.Second

// Feed is the front half of one peer's live session, shared by the BMP
// station (one per monitored peer) and the eBGP source. It turns the
// session's decoded UPDATEs into a provisioned sink plus a live event
// stream:
//
//   - while the peer's initial table transfer runs, announcements go to
//     the sink's Provisioner (withdrawals carry no signal and are
//     dropped); End-of-RIB, or Quiet after the settle period, provisions
//     the peer;
//   - after that, UPDATEs are lowered through one Builder bound to the
//     sink's PeerSink fast path when it offers one;
//   - every message advances the peer's StreamClock, from the message's
//     own timestamp or, when it has none, its arrival time.
//
// A sink without a Provisioner, or a peer already provisioned (restored
// from a snapshot, preloaded out-of-band), skips the transfer.
//
// A Feed does no locking: its caller serializes Update, Flush and Quiet.
type Feed struct {
	peer  PeerKey
	prov  Provisioner
	clock *StreamClock
	out   *Builder
	logf  func(format string, args ...any)

	// syncing is true while the table transfer drains into prov.
	syncing bool
	// live is set by the first lowered UPDATE: only a live peer has a
	// burst to close, so only a live peer is ticked.
	live bool
	// timestamped records that the session stamps its messages, which
	// puts the peer's stream clock in the sender's time domain.
	timestamped bool

	learned int
	lastMsg time.Time     // arrival of the newest message
	lastAt  time.Duration // stream offset of the newest live UPDATE
}

// NewFeed starts peer's feed into sink at now. clock is the peer's
// stream clock; a caller that must not rewind a peer's stream across
// reconnects keeps one clock per peer and hands it to every feed. logf,
// when set, receives one line per provisioning.
func NewFeed(sink Sink, peer PeerKey, clock *StreamClock, now time.Time, logf func(format string, args ...any)) *Feed {
	f := &Feed{peer: peer, clock: clock, logf: logf, lastMsg: now}
	if prov, ok := sink.(Provisioner); ok && !prov.Provisioned(peer) {
		f.prov, f.syncing = prov, true
	}
	if fast, ok := sink.(PeerSink); ok {
		sink = fast.PeerSink(peer)
	}
	f.out = NewBuilder(sink, 0)
	return f
}

// Syncing reports whether the peer's table transfer is still running.
func (f *Feed) Syncing() bool { return f.syncing }

// Update handles one UPDATE that arrived at now, stamped ts by its
// sender (the zero time when it carries no timestamp). None of the
// argument slices is retained.
func (f *Feed) Update(ts, now time.Time, withdrawn, announced []netaddr.Prefix, path []uint32) error {
	f.lastMsg = now
	if ts.IsZero() {
		ts = now
	} else {
		f.timestamped = true
	}
	at := f.clock.Offset(ts)
	if f.syncing {
		// End-of-RIB (RFC 4724) is an UPDATE with no withdrawn routes
		// and no NLRI.
		if len(withdrawn) == 0 && len(announced) == 0 {
			f.provision()
			return nil
		}
		// Learn interns the path, so a decoder's buffer goes in as is.
		for _, p := range announced {
			f.prov.Learn(f.peer, p, path)
			f.learned++
		}
		return nil
	}
	f.live, f.lastAt = true, at
	return f.out.Update(f.peer, at, withdrawn, announced, path)
}

// Flush hands the pending batch to the sink.
func (f *Feed) Flush() error { return f.out.Flush() }

// Quiet is the feed's timer step, for a caller that runs it every
// settle/4 or so. A transfer that learned routes and then went quiet
// for settle is provisioned. A live stream quiet for settle/4 has its
// pending batch flushed (a connection stalled mid-message can strand
// one) and, when the peer is in the wall-clock domain, gets a tick that
// advances the sink's clock past the gap, so a burst closes when the
// stream does. A timestamped stream runs on its sender's clock, and
// wall-clock quiet would push it ahead of (or behind) that clock during
// replays faster or slower than real time; its bursts close through its
// own messages.
func (f *Feed) Quiet(now time.Time, settle time.Duration) error {
	quiet := now.Sub(f.lastMsg)
	if f.syncing {
		if f.learned > 0 && quiet >= settle {
			f.provision()
		}
		return nil
	}
	if quiet < settle/4 {
		return nil
	}
	if err := f.out.Flush(); err != nil {
		return err
	}
	if f.live && !f.timestamped {
		return f.out.Tick(f.peer, f.lastAt+quiet)
	}
	return nil
}

func (f *Feed) provision() {
	f.syncing = false
	if err := f.prov.Provision(f.peer); err != nil {
		f.log("peer %s provision failed after %d routes: %v", f.peer, f.learned, err)
		return
	}
	f.log("peer %s provisioned (%d routes learned)", f.peer, f.learned)
}

func (f *Feed) log(format string, args ...any) {
	if f.logf != nil {
		f.logf(format, args...)
	}
}
