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
	// bgpd.Source (one eBGP session) feed the same sinks. Each monitored
	// peer runs through one event.Feed: its in-band table dump is loaded
	// through the sink's event.Provisioner and the peer provisioned at
	// End-of-RIB, unless the sink has no Provisioner or the peer is
	// already provisioned, and batches go out when a connection's read
	// buffer drains or event.DefaultBatchEvents accumulate.
	Sink event.Sink
	// TableSettle is the quiet period after which a peer still waiting
	// for End-of-RIB is provisioned anyway; a quarter of it paces the
	// quiet-stream ticks. Default event.DefaultTableSettle.
	TableSettle time.Duration
	// Logf, when set, receives one line per station event.
	Logf func(format string, args ...any)
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
	cfg StationConfig
	// feedLogf carries the feeds' provisioning lines into the station
	// log; built once, so starting a peer's feed allocates no closure.
	feedLogf func(format string, args ...any)

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
	if cfg.TableSettle <= 0 {
		cfg.TableSettle = event.DefaultTableSettle
	}
	st := &Station{
		cfg:    cfg,
		conns:  make(map[net.Conn]struct{}),
		clocks: make(map[event.PeerKey]*event.StreamClock),
	}
	st.feedLogf = func(format string, args ...any) { st.logf("bmp: "+format, args...) }
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
		peers: make(map[event.PeerKey]*event.Feed),
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
	peers map[event.PeerKey]*event.Feed

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

// feed returns key's feed on this connection, starting it on first
// sight. Caller holds c.mu.
func (c *connState) feed(key event.PeerKey) *event.Feed {
	if f, ok := c.peers[key]; ok {
		return f
	}
	f := event.NewFeed(c.st.cfg.Sink, key, c.st.clock(key), c.now, c.st.feedLogf)
	c.peers[key] = f
	return f
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
		c.st.logf("bmp: peer up %s (syncing=%v)", key, c.feed(key).Syncing())
		return nil
	case TypePeerDown:
		c.st.peerDown.Add(1)
		var m PeerDown
		if err := m.Decode(body); err != nil {
			return err
		}
		key := event.PeerKey{AS: m.Peer.AS, BGPID: m.Peer.BGPID}
		if f, ok := c.peers[key]; ok {
			c.flush(key, f)
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
// in the connection's reused decoder) and handed to the peer's feed,
// whose event.Builder owns the only copy made — the AS path, into its
// arena. Routers that timestamp their messages give the engines the
// true burst timeline regardless of replay speed; timestampless routers
// fall back to the read-burst's wall clock. Caller holds c.mu.
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
	if err := c.feed(key).Update(c.peerHdr.Timestamp(), c.now, c.upd.Withdrawn, c.upd.NLRI, c.upd.Attrs.ASPath); err != nil {
		c.st.logf("bmp: peer %s: sink: %v", key, err)
	}
	return nil
}

// flush hands key's pending batch to the sink. Caller holds c.mu.
func (c *connState) flush(key event.PeerKey, f *event.Feed) {
	if err := f.Flush(); err != nil {
		c.st.logf("bmp: peer %s: sink: %v", key, err)
	}
}

// flushAll flushes every peer. Caller holds c.mu.
func (c *connState) flushAll() {
	for key, f := range c.peers {
		c.flush(key, f)
	}
}

// settleLoop runs every peer's quiet step: it provisions peers whose
// table dump went quiet without an End-of-RIB, hands batches stranded
// by a stalled read to the sink, and ticks live engines so bursts close
// when the stream does.
func (c *connState) settleLoop(stop <-chan struct{}) {
	settle := c.st.cfg.TableSettle
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
		for key, f := range c.peers {
			if err := f.Quiet(now, settle); err != nil {
				c.st.logf("bmp: peer %s: sink: %v", key, err)
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
