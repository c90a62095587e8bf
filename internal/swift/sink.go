package swift

import (
	"sync"

	"swift/internal/event"
	"swift/internal/netaddr"
)

// SessionSink adapts one Engine to the peer-attributed, concurrency-
// safe sink surface that multi-peer sources (a BMP station, a fleet-
// shaped replay) expect. Peer attribution is ignored — every event
// lands on the one engine regardless of which session a source says it
// came from — and a mutex serializes deliveries, so concurrent feed
// goroutines are safe.
//
// It makes the single-session Engine and the collector-scale Fleet
// interchangeable behind the same Source: wire a SessionSink where a
// Fleet would go and the whole stream drives one engine.
type SessionSink struct {
	mu sync.Mutex
	e  *Engine
}

// SessionSink is both a stream sink and a table-transfer target.
var (
	_ event.Sink        = (*SessionSink)(nil)
	_ event.Provisioner = (*SessionSink)(nil)
)

// NewSessionSink wraps an engine.
func NewSessionSink(e *Engine) *SessionSink { return &SessionSink{e: e} }

// Engine returns the wrapped engine. Callers must not drive it
// concurrently with active sources.
func (s *SessionSink) Engine() *Engine { return s.e }

// Apply delivers one batch to the engine under the sink's lock.
func (s *SessionSink) Apply(b event.Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Apply(b)
}

// Learn installs an initial-table route on the primary RIB.
func (s *SessionSink) Learn(_ event.PeerKey, p netaddr.Prefix, path []uint32) {
	s.mu.Lock()
	s.e.LearnPrimary(p, path)
	s.mu.Unlock()
}

// Provisioned reports whether the engine has a compiled encoding.
func (s *SessionSink) Provisioned(event.PeerKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Scheme() != nil
}

// Provision compiles the plan and tag encoding from the loaded tables.
func (s *SessionSink) Provision(event.PeerKey) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Provision()
}

// Do runs fn with the engine locked — the escape hatch for inspection
// while sources are live. fn must not retain the engine.
func (s *SessionSink) Do(fn func(*Engine)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.e)
}
