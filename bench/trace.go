package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"swift/internal/controller"
	"swift/internal/event"
	"swift/internal/netaddr"
)

// span is one timed interval recorded from the harness side of a layer
// boundary. Start and End are nanoseconds since the tracer's zero;
// Parent is the index of the span that caused it (-1 for a root); ID is
// the burst or batch the span belongs to; N is how many operations it
// covers — events in a batch, iterations of an isolated replay — so a
// per-operation cost can be read off a span without another table.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int64  `json:"id"`
	N      int64  `json:"n,omitempty"`
}

// batchRec is one Sink.Apply call seen by the tracing sink.
type batchRec struct {
	start, end int64
	peer       event.PeerKey
	at         time.Duration // stream offset of the batch's first event
	n          int32
}

const (
	// maxBatchRecs bounds the per-batch records a traced run keeps; the
	// 100-peer workload makes millions of tiny batches. Batches past the
	// bound are still counted.
	maxBatchRecs = 1 << 19
	// maxCaptured bounds the events whose batches are kept for the
	// isolated replays (direct fleet, single engine).
	maxCaptured = 400_000
)

// tracer holds a traced run's spans and counts in memory; they are
// written once, at exit.
type tracer struct {
	zero   time.Time
	spans  []span
	counts map[string]float64

	mu       sync.Mutex // the station and its settle scanner, or several mrt sources, call apply
	batches  []batchRec
	nBatches int64
	nEvents  int64
	captured []event.Batch
	capEv    int
	byPeer   map[event.PeerKey][]int32 // batchFor's index over batches[:indexed]
	indexed  int
}

func newTracer() *tracer {
	return &tracer{zero: time.Now(), counts: make(map[string]float64), batches: make([]batchRec, 0, 1<<16)}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.zero)) }

// add records a finished span and returns its index.
func (tr *tracer) add(name string, start, end int64, parent int, id, n int64) int {
	tr.spans = append(tr.spans, span{Name: name, Start: start, End: end, Parent: parent, ID: id, N: n})
	return len(tr.spans) - 1
}

// timed runs fn as a root span covering n operations.
func (tr *tracer) timed(name string, n int64, fn func()) {
	start := tr.now()
	fn()
	tr.add(name, start, tr.now(), -1, 0, n)
}

// apply forwards one batch to inner with a span round the call — the
// controller.apply span, back-pressure included.
func (tr *tracer) apply(inner event.Sink, b event.Batch) error {
	n := 0
	for i := range b {
		if b[i].Kind != event.KindTick {
			n++
		}
	}
	if n == 0 {
		return inner.Apply(b)
	}
	rec := batchRec{peer: b[0].Peer, at: b[0].At, n: int32(n)}
	rec.start = tr.now()
	err := inner.Apply(b)
	rec.end = tr.now()
	tr.mu.Lock()
	tr.nBatches++
	tr.nEvents += int64(n)
	if len(tr.batches) < maxBatchRecs {
		tr.batches = append(tr.batches, rec)
	}
	if tr.capEv < maxCaptured {
		tr.captured = append(tr.captured, b)
		tr.capEv += n
	}
	tr.mu.Unlock()
	return err
}

// batchFor returns the recorded batch that carried peer's event at
// stream offset at: the last of the peer's batches that starts at or
// before it. It must not run while batches are still arriving.
func (tr *tracer) batchFor(peer event.PeerKey, at time.Duration) (batchRec, bool) {
	if tr.indexed != len(tr.batches) {
		tr.byPeer = make(map[event.PeerKey][]int32)
		for i := range tr.batches {
			tr.byPeer[tr.batches[i].peer] = append(tr.byPeer[tr.batches[i].peer], int32(i))
		}
		tr.indexed = len(tr.batches)
	}
	idx := tr.byPeer[peer]
	k := sort.Search(len(idx), func(k int) bool { return tr.batches[idx[k]].at > at })
	if k == 0 {
		return batchRec{}, false
	}
	return tr.batches[idx[k-1]], true
}

// tracingSink wraps the fleet for a traced run: the station (or the MRT
// sources) feed it instead of the fleet, and every hand-off is timed.
type tracingSink struct {
	fleet *controller.Fleet
	tr    *tracer
}

var (
	_ event.Sink        = (*tracingSink)(nil)
	_ event.Provisioner = (*tracingSink)(nil)
	_ event.PeerSink    = (*tracingSink)(nil)
)

func (t *tracingSink) Apply(b event.Batch) error { return t.tr.apply(t.fleet, b) }

func (t *tracingSink) PeerSink(peer event.PeerKey) event.Sink {
	return tracedPeer{inner: t.fleet.PeerSink(peer), tr: t.tr}
}

func (t *tracingSink) Learn(peer event.PeerKey, p netaddr.Prefix, path []uint32) {
	t.fleet.Learn(peer, p, path)
}
func (t *tracingSink) Provisioned(peer event.PeerKey) bool { return t.fleet.Provisioned(peer) }
func (t *tracingSink) Provision(peer event.PeerKey) error  { return t.fleet.Provision(peer) }

type tracedPeer struct {
	inner event.Sink
	tr    *tracer
}

func (t tracedPeer) Apply(b event.Batch) error { return t.tr.apply(t.inner, b) }

// layerTime is what the trace says about one span name.
type layerTime struct {
	count int64
	n     int64 // operations covered
	total int64 // summed duration, ns
	self  int64 // summed duration not covered by child spans, ns
}

// selfTimes folds spans by name. A span's self time is its duration
// minus the part of its interval its children cover.
func selfTimes(spans []span) map[string]*layerTime {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].Start < spans[cs[b]].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := spans[c].Start, spans[c].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt.count++
		lt.n += s.N
		lt.total += s.End - s.Start
		lt.self += s.End - s.Start - covered
	}
	return out
}

// traceLine is one line of the trace file: a header, a span or a count.
type traceLine struct {
	Provenance *provenance `json:"provenance,omitempty"`
	Workload   string      `json:"workload,omitempty"`
	Span       *span       `json:"span,omitempty"`
	Count      string      `json:"count,omitempty"`
	Value      float64     `json:"value,omitempty"`
}

// write writes the run's spans and counts as JSON Lines.
func (tr *tracer) write(path, workload string, prov *provenance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	err = enc.Encode(traceLine{Provenance: prov, Workload: workload})
	for i := range tr.spans {
		if err == nil {
			err = enc.Encode(traceLine{Span: &tr.spans[i]})
		}
	}
	names := make([]string, 0, len(tr.counts))
	for name := range tr.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err == nil {
			err = enc.Encode(traceLine{Count: name, Value: tr.counts[name]})
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readTrace loads a trace file back: the per-layer table is computed
// from what the file holds, so the file alone is enough to redo it.
func readTrace(path string) ([]span, map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var spans []span
	counts := make(map[string]float64)
	dec := json.NewDecoder(bufio.NewReaderSize(f, 1<<20))
	for dec.More() {
		var l traceLine
		if err := dec.Decode(&l); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		switch {
		case l.Span != nil:
			spans = append(spans, *l.Span)
		case l.Count != "":
			counts[l.Count] = l.Value
		}
	}
	return spans, counts, nil
}
