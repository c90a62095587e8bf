// Package ring provides the bounded single-consumer ring buffer behind
// the fleet dataplane's worker shards, modeled on the SPSC rings that
// feed NDN-DPDK's forwarding threads: a power-of-two cell array with
// per-cell sequence numbers, try and blocking push/pop variants, batch
// drain, and a zero-alloc steady state (cells are reused in place; the
// only allocations ever made are at construction).
//
// The consumer side is strictly single-goroutine — exactly one worker
// owns Pop/PopBatchWait — which keeps dequeue free of compare-and-swap
// loops. The producer side is multi-producer safe (a CAS claims a
// cell), degenerating to the uncontended SPSC fast path when a single
// source feeds the ring; the fleet needs this because any number of
// BMP connections, replay sources and direct Enqueue callers may land
// batches on one shard concurrently.
//
// Blocking coordination is intentionally coarse: both sides spin
// through a quick recheck and then park on a one-slot notification
// channel, so the steady state (ring neither full nor empty) never
// touches a futex, and the idle state costs nothing.
package ring

import (
	"runtime"
	"sync/atomic"
)

// cell is one slot: seq is the Vyukov-style sequence number that
// encodes whether the slot is free for the producer (seq == pos) or
// ready for the consumer (seq == pos+1).
type cell[T any] struct {
	seq atomic.Uint64
	v   T
}

// Ring is a bounded multi-producer single-consumer queue. The zero
// value is not usable; construct with New.
type Ring[T any] struct {
	mask  uint64
	cells []cell[T]

	_    [48]byte // keep tail off the cells/mask cache line
	tail atomic.Uint64
	_    [56]byte // and head off tail's
	head atomic.Uint64

	closed atomic.Bool
	// closeCh broadcasts Close to every parked producer and consumer.
	closeCh chan struct{}
	// popWait is set while the consumer is parked on popCh; a producer
	// that lands a value CASes it back and posts one token.
	popWait atomic.Bool
	popCh   chan struct{}
	// pushWaiters counts producers parked on pushCh; the consumer
	// posts one token per pop while any are waiting.
	pushWaiters atomic.Int64
	pushCh      chan struct{}
}

// New returns a ring with capacity rounded up to the next power of two
// (minimum 2).
func New[T any](capacity int) *Ring[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &Ring[T]{
		mask:    uint64(n - 1),
		cells:   make([]cell[T], n),
		closeCh: make(chan struct{}),
		popCh:   make(chan struct{}, 1),
		pushCh:  make(chan struct{}, 1),
	}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.cells) }

// Len returns the number of buffered values. It is a racy snapshot,
// exact only when producers and the consumer are quiescent — the shape
// occupancy gauges want.
func (r *Ring[T]) Len() int {
	n := int64(r.tail.Load()) - int64(r.head.Load())
	if n < 0 {
		return 0
	}
	if n > int64(len(r.cells)) {
		return len(r.cells)
	}
	return int(n)
}

// Closed reports whether Close has been called.
func (r *Ring[T]) Closed() bool { return r.closed.Load() }

// TryPush enqueues v without blocking. It reports false when the ring
// is full or closed.
func (r *Ring[T]) TryPush(v T) bool {
	if r.closed.Load() {
		return false
	}
	pos := r.tail.Load()
	for {
		c := &r.cells[pos&r.mask]
		seq := c.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if r.tail.CompareAndSwap(pos, pos+1) {
				c.v = v
				c.seq.Store(pos + 1)
				r.wakePop()
				return true
			}
			pos = r.tail.Load()
		case d < 0:
			return false // full
		default:
			pos = r.tail.Load()
		}
	}
}

// Push enqueues v, blocking while the ring is full — backpressure,
// never loss. It reports false only when the ring is (or becomes)
// closed before the value lands.
func (r *Ring[T]) Push(v T) bool {
	for {
		if r.TryPush(v) {
			return true
		}
		if r.closed.Load() {
			return false
		}
		// Park: register, then recheck once to close the race against a
		// consumer that popped (and checked pushWaiters) in between.
		r.pushWaiters.Add(1)
		if r.TryPush(v) {
			r.pushWaiters.Add(-1)
			return true
		}
		select {
		case <-r.pushCh:
		case <-r.closeCh:
		}
		r.pushWaiters.Add(-1)
	}
}

// TryPop dequeues one value without blocking. ok is false when the
// ring is empty (closed or not). Single consumer only.
func (r *Ring[T]) TryPop() (v T, ok bool) {
	pos := r.head.Load()
	c := &r.cells[pos&r.mask]
	seq := c.seq.Load()
	if int64(seq)-int64(pos+1) < 0 {
		return v, false // empty
	}
	v = c.v
	var zero T
	c.v = zero // release the value's references to GC
	c.seq.Store(pos + r.mask + 1)
	r.head.Store(pos + 1)
	r.wakePush()
	return v, true
}

// Pop dequeues one value, blocking while the ring is empty. ok is
// false once the ring is closed and drained — the consumer's exit
// signal. Single consumer only.
func (r *Ring[T]) Pop() (v T, ok bool) {
	for {
		if v, ok = r.TryPop(); ok {
			return v, true
		}
		if r.closed.Load() {
			// Drain after observing closed: a producer may have landed a
			// value between the failed TryPop and the flag read — or worse,
			// claimed a cell (won the tail CAS in TryPush) without having
			// published its seq yet. TryPop reports empty for such a cell,
			// so a single re-drain could exit with the value still in
			// flight. head != tail is the authoritative occupancy signal:
			// spin until every claimed cell is published and popped.
			for {
				if v, ok = r.TryPop(); ok {
					return v, true
				}
				if r.head.Load() == r.tail.Load() {
					return v, false
				}
				runtime.Gosched()
			}
		}
		r.popWait.Store(true)
		if v, ok = r.TryPop(); ok {
			r.popWait.Store(false)
			return v, true
		}
		select {
		case <-r.popCh:
		case <-r.closeCh:
		}
		r.popWait.Store(false)
	}
}

// PopBatchWait blocks for one value, then drains up to cap(dst) values
// in all into dst[:0] without blocking again, returning the filled
// prefix: a non-empty one, or an empty one only when the ring is closed
// and drained. Single consumer only.
func (r *Ring[T]) PopBatchWait(dst []T) []T {
	v, ok := r.Pop()
	if !ok {
		return dst[:0]
	}
	dst = append(dst[:0], v)
	for len(dst) < cap(dst) {
		v, ok := r.TryPop()
		if !ok {
			break
		}
		dst = append(dst, v)
	}
	return dst
}

// Close marks the ring closed and wakes every parked producer and
// consumer. Blocked Push calls return false; Pop drains what remains
// and then reports ok=false. Idempotent.
func (r *Ring[T]) Close() {
	if !r.closed.Swap(true) {
		close(r.closeCh)
	}
}

// wakePop hands the parked consumer one token.
func (r *Ring[T]) wakePop() {
	if r.popWait.CompareAndSwap(true, false) {
		select {
		case r.popCh <- struct{}{}:
		default:
		}
	}
}

// wakePush hands one parked producer one token. The consumer calls
// this on every pop while producers are parked; each token frees one
// producer, whose own push then frees the next via the ring's spare
// capacity, so the chain drains without a broadcast.
func (r *Ring[T]) wakePush() {
	if r.pushWaiters.Load() > 0 {
		select {
		case r.pushCh <- struct{}{}:
		default:
		}
	}
}
