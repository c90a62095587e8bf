// Package controller implements the paper's §7 deployment scheme for
// routers without a native two-stage table: a SWIFT controller speaks
// eBGP with the protected router's peers (the ExaBGP role), runs the
// SWIFT engine on each session's stream, and programs an SDN-switch-
// like data plane (our dataplane.FIB) with the tag rules. The protected
// router only needs BGP and ARP; here the "switch" is the simulated FIB
// the engine owns.
package controller

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"swift/internal/bgp"
	"swift/internal/bgpd"
	"swift/internal/event"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
	"swift/internal/topology"
)

// Controller wires live BGP sessions into a SWIFT engine.
type Controller struct {
	mu     sync.Mutex
	engine *swiftengine.Engine
	out    *event.Builder // lowers session UPDATEs into engine batches; guarded by mu
	start  time.Time
	logf   func(string, ...any)

	withdrawals   atomic.Uint64
	announcements atomic.Uint64

	wg       sync.WaitGroup
	sessions []*bgpd.Session
}

// New wraps an engine. The engine must already be provisioned (or be
// provisioned via Provision below after table transfer).
func New(engine *swiftengine.Engine, logf func(string, ...any)) *Controller {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Controller{engine: engine, out: event.NewBuilder(engine, 0), start: time.Now(), logf: logf}
}

// Engine returns the wrapped engine. Callers must not use it
// concurrently with attached sessions.
func (c *Controller) Engine() *swiftengine.Engine { return c.engine }

// LoadTable ingests an initial table (e.g., from the first flood of
// UPDATEs after session establishment) into the primary RIB.
func (c *Controller) LoadTable(updates []*bgp.Update) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, u := range updates {
		for _, p := range u.NLRI {
			c.engine.LearnPrimary(p, u.Attrs.ASPath)
		}
	}
}

// LoadAlternate ingests a neighbor's table into the alternates pool.
func (c *Controller) LoadAlternate(neighbor uint32, updates []*bgp.Update) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, u := range updates {
		for _, p := range u.NLRI {
			c.engine.LearnAlternate(neighbor, p, u.Attrs.ASPath)
		}
	}
}

// Provision compiles the plan/tags once tables are loaded.
func (c *Controller) Provision() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.engine.Provision()
}

// AttachPrimary consumes the primary session's update stream until the
// session closes, driving the engine in real time.
func (c *Controller) AttachPrimary(s *bgpd.Session) {
	c.sessions = append(c.sessions, s)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		updates := s.Updates()
		for u := range updates {
			c.apply(u, updates)
		}
		c.logf("controller: primary session with AS%d closed", s.PeerAS())
	}()
}

// apply feeds u, and every UPDATE already queued behind it on more,
// into the engine with a wall-clock stream offset: one burst of
// received UPDATEs becomes one batch (split only at the builder's cap),
// not one batch per message.
func (c *Controller) apply(u *bgp.Update, more <-chan *bgp.Update) {
	at := time.Since(c.start)
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	var wd, ann int
	for u != nil && err == nil {
		wd, ann = wd+len(u.Withdrawn), ann+len(u.NLRI)
		err = c.out.Update(event.PeerKey{}, at, u.Withdrawn, u.NLRI, u.Attrs.ASPath)
		select {
		case u = <-more: // nil once the session closed the channel
		default:
			u = nil
		}
	}
	c.withdrawals.Add(uint64(wd))
	c.announcements.Add(uint64(ann))
	if err == nil {
		err = c.out.Flush()
	}
	if err != nil {
		c.logf("controller: apply: %v", err)
	}
}

// Tick advances the engine's burst detector on a timer; run it from a
// ticker goroutine when streams can go quiet.
func (c *Controller) Tick() {
	at := time.Since(c.start)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.out.Tick(event.PeerKey{}, at); err != nil {
		c.logf("controller: tick: %v", err)
	}
}

// Wait blocks until all attached sessions have drained.
func (c *Controller) Wait() { c.wg.Wait() }

// ForwardPrefix asks the programmed data plane where a prefix goes.
func (c *Controller) ForwardPrefix(p netaddr.Prefix) (uint32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.engine.FIB().ForwardPrefix(p)
}

// OnLink reports how many RIB prefixes currently cross l.
func (c *Controller) OnLink(l topology.Link) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.engine.RIB().OnLink(l)
}

// Decisions snapshots the engine's decision log.
func (c *Controller) Decisions() []swiftengine.Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.engine.Decisions()
}

// Status renders a one-line summary.
func (c *Controller) Status() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("rib=%d prefixes, rules=%d, decisions=%d, rerouting=%v",
		c.engine.RIB().Len(), c.engine.FIB().NumRules(), c.engine.NumDecisions(), c.engine.RerouteActive())
}
