package bmp

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"swift/internal/bgp"
	"swift/internal/event"
)

// StationConfig parameterizes a Station.
type StationConfig struct {
	// Sink receives the demuxed per-peer event stream. Required. A
	// controller.Fleet routes each peer to its own engine; a
	// swift.SessionSink funnels everything into one. mrt.Source and
	// bgpd.Source (one eBGP session) feed the same sinks. If the sink
	// also implements event.Provisioner, each peer's in-band table dump
	// is loaded through it and the peer is provisioned at End-of-RIB;
	// otherwise peers are assumed provisioned out-of-band and go
	// straight to live streaming.
	Sink event.Sink
	// TableSettle is the quiet period after which a peer still waiting
	// for End-of-RIB is provisioned anyway (routers predating RFC 4724
	// never send the marker). Default 3 s.
	TableSettle time.Duration
	// BatchEvents caps how many events accumulate per peer before a
	// batch is handed to the sink (default event.DefaultBatchEvents).
	// Batches also flush whenever the connection's read buffer drains,
	// so latency stays at one syscall under light load.
	BatchEvents int
	// Logf, when set, receives one line per station event.
	Logf func(format string, args ...any)
}

func (c StationConfig) tableSettle() time.Duration {
	if c.TableSettle <= 0 {
		return 3 * time.Second
	}
	return c.TableSettle
}

// StationMetrics is a snapshot of a station's ingestion counters.
type StationMetrics struct {
	Conns           int
	Messages        uint64
	RouteMonitoring uint64
	PeerUps         uint64
	PeerDowns       uint64
	StatsReports    uint64
	// Bytes counts the wire bytes of the messages counted above — the
	// ingest rate's numerator.
	Bytes uint64
	// DecodeErrors counts connections dropped on framing or embedded-
	// UPDATE decode failures. Nonzero means a router is sending garbage
	// (or the codec has a gap a fuzzer should find).
	DecodeErrors uint64
}

// Station is the BMP collector side: it accepts monitored-router
// connections, demultiplexes the per-peer Route Monitoring streams into
// peer-attributed event batches and pushes them into the configured
// sink. One station serves many routers; each router's peers share the
// sink. A Station is an event.Source over its live connections.
type Station struct {
	cfg  StationConfig
	prov event.Provisioner // cfg.Sink's setup surface, when it has one

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// clocks maps each peer to its stream clock. Clocks live on the
	// station (not the connection) so a flapping router cannot rewind a
	// peer's engine clock by reconnecting.
	clockMu sync.Mutex
	clocks  map[event.PeerKey]*event.StreamClock

	messages  atomic.Uint64
	routeMon  atomic.Uint64
	peerUps   atomic.Uint64
	peerDown  atomic.Uint64
	statsRep  atomic.Uint64
	bytes     atomic.Uint64
	decodeErr atomic.Uint64
}

// NewStation builds a station over an existing sink.
func NewStation(cfg StationConfig) *Station {
	if cfg.Sink == nil {
		panic("bmp: StationConfig.Sink is required")
	}
	st := &Station{
		cfg:    cfg,
		conns:  make(map[net.Conn]struct{}),
		clocks: make(map[event.PeerKey]*event.StreamClock),
	}
	st.prov, _ = cfg.Sink.(event.Provisioner)
	return st
}

// Sink returns the event sink the station feeds.
func (st *Station) Sink() event.Sink { return st.cfg.Sink }

// clock returns the peer's stream clock, creating it on first use.
func (st *Station) clock(key event.PeerKey) *event.StreamClock {
	st.clockMu.Lock()
	defer st.clockMu.Unlock()
	c, ok := st.clocks[key]
	if !ok {
		c = &event.StreamClock{}
		st.clocks[key] = c
	}
	return c
}

// Metrics snapshots the ingestion counters. Messages, RouteMonitoring
// and Bytes are published once per read-burst (see connState.burst), so
// they trail each connection by at most the frames of one read buffer.
func (st *Station) Metrics() StationMetrics {
	st.mu.Lock()
	conns := len(st.conns)
	st.mu.Unlock()
	return StationMetrics{
		Conns:           conns,
		Messages:        st.messages.Load(),
		RouteMonitoring: st.routeMon.Load(),
		PeerUps:         st.peerUps.Load(),
		PeerDowns:       st.peerDown.Load(),
		StatsReports:    st.statsRep.Load(),
		Bytes:           st.bytes.Load(),
		DecodeErrors:    st.decodeErr.Load(),
	}
}

// Serve accepts router connections on ln until the station closes,
// running each connection on its own goroutine. It returns nil after
// Close.
func (st *Station) Serve(ln net.Listener) error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		ln.Close()
		return errors.New("bmp: station closed")
	}
	st.ln = ln
	st.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			st.mu.Lock()
			closed := st.closed
			st.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			if err := st.ServeConn(conn); err != nil {
				st.logf("bmp: router %v: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// Close stops the listener, closes every router connection and waits
// for the connection handlers to drain. The sink stays open — its
// engines remain inspectable and the caller owns its shutdown.
func (st *Station) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		st.wg.Wait()
		return nil
	}
	st.closed = true
	ln := st.ln
	for c := range st.conns {
		c.Close()
	}
	st.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	st.wg.Wait()
	return nil
}

func (st *Station) track(conn net.Conn) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return false
	}
	st.conns[conn] = struct{}{}
	return true
}

func (st *Station) untrack(conn net.Conn) {
	st.mu.Lock()
	delete(st.conns, conn)
	st.mu.Unlock()
}

// peerStream is the per-(connection, peer) demux state.
type peerStream struct {
	key   event.PeerKey
	clock *event.StreamClock
	// out lowers this peer's live UPDATEs into batches for the sink's
	// bound per-peer fast path when it offers one (event.PeerSink), the
	// sink itself otherwise.
	out *event.Builder

	// syncing is true while the initial table dump drains into the
	// sink's Provisioner; End-of-RIB (or the settle timer) flips it.
	// It is never set when the sink has no Provisioner surface.
	syncing bool
	// sawTimestamp records that the router timestamps this peer's
	// messages, putting its engine clock in the router's time domain.
	sawTimestamp bool

	learned int
	lastMsg time.Time // wall-clock arrival of the newest message
	lastAt  time.Duration
}

// ServeConn runs one monitored-router connection to completion: it
// demuxes every BMP message into per-peer event batches for the sink.
// It returns after the router terminates the session, the connection
// drops, or the station closes. Exported so tests and in-process
// routers can drive a station without a TCP listener.
func (st *Station) ServeConn(conn net.Conn) error {
	if !st.track(conn) {
		conn.Close()
		return errors.New("bmp: station closed")
	}
	defer st.untrack(conn)
	defer conn.Close()

	c := &connState{
		st:    st,
		peers: make(map[event.PeerKey]*peerStream),
	}
	// The settle scanner provisions peers whose table dump ended
	// without an End-of-RIB marker and ticks live engines when the
	// stream goes quiet (bursts end by timer, not by message).
	stop := make(chan struct{})
	defer close(stop)
	go c.settleLoop(stop)

	r := NewReader(conn)
	for {
		typ, body, err := r.Next() // the one call that waits on the socket
		err = c.burst(r, typ, body, err)
		switch {
		case err == nil:
			continue
		case errors.Is(err, errTerminated), errors.Is(err, net.ErrClosed), errors.Is(err, io.EOF):
			return nil
		}
		st.decodeErr.Add(1)
		return err
	}
}

// errTerminated signals a clean Termination message.
var errTerminated = errors.New("bmp: session terminated by router")

// connState demuxes one router connection.
type connState struct {
	st *Station

	mu    sync.Mutex // guards peers against the settle scanner
	peers map[event.PeerKey]*peerStream

	sysName string
	upd     bgp.UpdateDecoder
	peerHdr PeerHeader
	// now is the wall clock of the read-burst being handled; routeMon
	// counts its Route Monitoring frames until burst publishes them.
	now      time.Time
	routeMon uint64
}

// burst handles the frame Next just returned and then every complete
// frame the read buffer already holds — receive a burst, process a
// burst — under one hold of c.mu, one clock read and one publication of
// the message counters, instead of one of each per message. Pending
// batches go to the sink when the buffer drains completely (or on any
// error, which ends the connection); a partial frame left in the buffer
// keeps them for the next burst, bounded by the settle scanner.
func (c *connState) burst(r *Reader, typ uint8, body []byte, err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = time.Now()
	var msgs, wire uint64
	for err == nil {
		msgs++
		wire += uint64(HeaderLen + len(body))
		if err = c.handle(typ, body); err != nil || !r.Ready() {
			break
		}
		typ, body, err = r.Next()
	}
	c.st.messages.Add(msgs)
	c.st.bytes.Add(wire)
	c.st.routeMon.Add(c.routeMon)
	c.routeMon = 0
	if err != nil || r.Buffered() == 0 {
		c.flushAll()
	}
	return err
}

func (c *connState) stream(key event.PeerKey) *peerStream {
	if ps, ok := c.peers[key]; ok {
		return ps
	}
	dst := c.st.cfg.Sink
	if fast, ok := dst.(event.PeerSink); ok {
		dst = fast.PeerSink(key)
	}
	ps := &peerStream{
		key:   key,
		clock: c.st.clock(key),
		out:   event.NewBuilder(dst, c.st.cfg.BatchEvents),
		// A sink without a setup surface — or a peer provisioned
		// out-of-band (tests, preloaded tables) — skips the table-dump
		// phase and goes straight to live.
		syncing: c.st.prov != nil && !c.st.prov.Provisioned(key),
		lastMsg: c.now,
	}
	c.peers[key] = ps
	return ps
}

// handle demuxes one message. Caller holds c.mu.
func (c *connState) handle(typ uint8, body []byte) error {
	switch typ {
	case TypeRouteMonitoring:
		c.routeMon++
		return c.handleRouteMonitoring(body)
	case TypePeerUp:
		c.st.peerUps.Add(1)
		var m PeerUp
		if err := m.Decode(body); err != nil {
			return err
		}
		key := event.PeerKey{AS: m.Peer.AS, BGPID: m.Peer.BGPID}
		c.st.logf("bmp: peer up %s (syncing=%v)", key, c.stream(key).syncing)
		return nil
	case TypePeerDown:
		c.st.peerDown.Add(1)
		var m PeerDown
		if err := m.Decode(body); err != nil {
			return err
		}
		key := event.PeerKey{AS: m.Peer.AS, BGPID: m.Peer.BGPID}
		if ps, ok := c.peers[key]; ok {
			c.flush(ps)
			delete(c.peers, key)
		}
		c.st.logf("bmp: peer down %s reason %d", key, m.Reason)
		return nil
	case TypeStatsReport:
		c.st.statsRep.Add(1)
		return nil
	case TypeInitiation:
		var m Initiation
		if err := m.Decode(body); err != nil {
			return err
		}
		c.sysName = m.SysName
		c.st.logf("bmp: initiation from %q (%s)", m.SysName, m.SysDescr)
		return nil
	case TypeTermination:
		var m Termination
		if err := m.Decode(body); err != nil {
			return err
		}
		c.st.logf("bmp: termination from %q reason %d", c.sysName, m.Reason)
		return errTerminated
	case TypeRouteMirroring:
		return nil // mirrored PDUs carry no SWIFT signal
	}
	// Unknown type: the frame was already consumed whole and the
	// stream stays aligned, so skip it instead of blinding the
	// collector to every peer on this router (post-RFC-7854 message
	// types keep appearing; framing-level garbage is still fatal via
	// the version/length guards in Reader).
	c.st.logf("bmp: skipping unknown message type %d (%d bytes)", typ, len(body))
	return nil
}

// handleRouteMonitoring is the hot path: peer header + UPDATE, decoded
// in place (the frame is a view into the read buffer, the UPDATE lands
// in the connection's reused decoder) and lowered through the peer's
// event.Builder, which owns the only copy made — the AS path, into its
// arena. Caller holds c.mu.
func (c *connState) handleRouteMonitoring(body []byte) error {
	b, err := ParsePeerHeader(body, &c.peerHdr)
	if err != nil {
		return err
	}
	pdu, _, err := embedded(b, bgp.TypeUpdate, "UPDATE")
	if err != nil {
		return err
	}
	if err := c.upd.Decode(pdu); err != nil {
		return err
	}

	key := event.PeerKey{AS: c.peerHdr.AS, BGPID: c.peerHdr.BGPID}
	ps := c.stream(key)
	ps.lastMsg = c.now
	at := c.streamOffset(ps)

	if ps.syncing {
		// End-of-RIB (RFC 4724): an UPDATE with no withdrawn routes and
		// no NLRI marks the end of the initial table dump.
		if len(c.upd.NLRI) == 0 && len(c.upd.Withdrawn) == 0 {
			c.provisionLocked(ps)
			return nil
		}
		// Learn interns the path, so the decoder's buffer goes in as is.
		// Withdrawals during a table dump carry no signal; skip them.
		for _, p := range c.upd.NLRI {
			c.st.prov.Learn(key, p, c.upd.Attrs.ASPath)
			ps.learned++
		}
		return nil
	}

	ps.lastAt = at
	if err := ps.out.Update(key, at, c.upd.Withdrawn, c.upd.NLRI, c.upd.Attrs.ASPath); err != nil {
		c.st.logf("bmp: peer %s: sink: %v", ps.key, err)
	}
	return nil
}

// streamOffset converts a message's per-peer header timestamp into the
// peer's stream offset. Routers that timestamp their messages give the
// engines the true burst timeline regardless of replay speed;
// timestampless routers fall back to arrival wall-clock. The clock
// lives on the station, so a flapping router connection cannot rewind
// the engine clock.
func (c *connState) streamOffset(ps *peerStream) time.Duration {
	ts := c.peerHdr.Timestamp()
	if ts.IsZero() {
		ts = c.now
	} else {
		ps.sawTimestamp = true
	}
	return ps.clock.Offset(ts)
}

func (c *connState) provisionLocked(ps *peerStream) {
	ps.syncing = false
	if err := c.st.prov.Provision(ps.key); err != nil {
		c.st.logf("bmp: peer %s provision failed after %d routes: %v", ps.key, ps.learned, err)
		return
	}
	c.st.logf("bmp: peer %s provisioned (%d routes learned)", ps.key, ps.learned)
}

// flush hands ps's pending batch to the sink. Caller holds c.mu.
func (c *connState) flush(ps *peerStream) {
	if err := ps.out.Flush(); err != nil {
		c.st.logf("bmp: peer %s: sink: %v", ps.key, err)
	}
}

// flushAll flushes every peer. Caller holds c.mu.
func (c *connState) flushAll() {
	for _, ps := range c.peers {
		c.flush(ps)
	}
}

// settleLoop periodically provisions peers whose table dump went quiet
// without an End-of-RIB and ticks live engines so bursts close when
// the stream does.
func (c *connState) settleLoop(stop <-chan struct{}) {
	settle := c.st.cfg.tableSettle()
	t := time.NewTicker(settle / 4)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		now := time.Now()
		c.mu.Lock()
		for _, ps := range c.peers {
			quiet := now.Sub(ps.lastMsg)
			if ps.syncing {
				if ps.learned > 0 && quiet >= settle {
					c.provisionLocked(ps)
				}
				continue
			}
			if quiet < settle/4 {
				continue
			}
			// The read loop only flushes when its buffer drains or a
			// batch fills; a connection stalled mid-message can strand a
			// sub-batch here. Bound that delay.
			c.flush(ps)
			if ps.lastAt > 0 && !ps.sawTimestamp {
				// Advance the engine clock past the quiet gap so the
				// burst detector can declare the burst over. Only for
				// peers in the wall-clock domain: a timestamped stream
				// runs on the router's clock, and mixing in wall-quiet
				// would push the engine clock ahead of (or behind) the
				// stream during replays faster or slower than real
				// time — those peers' bursts close through their own
				// message timeline instead.
				if err := ps.out.Tick(ps.key, ps.lastAt+quiet); err != nil {
					c.st.logf("bmp: peer %s: sink: %v", ps.key, err)
				}
			}
		}
		c.mu.Unlock()
	}
}

func (st *Station) logf(format string, args ...any) {
	if st.cfg.Logf != nil {
		st.cfg.Logf(format, args...)
	}
}
