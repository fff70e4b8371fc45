// Package obs carries a request's trace id from the client through the
// gateway into the node RPCs it causes, and records the spans of a traced
// request - admission wait, plan, each node batch, decode, manifest persist
// and replicate - into a bounded ring its owner can dump.
//
// The id rides in the request context. A context without one makes every
// call here a no-op that allocates nothing, so untraced traffic pays one
// context lookup per span site and nothing on the wire.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed step of a traced request.
type Span struct {
	// Trace is the id every span of one request shares.
	Trace uint64 `json:"trace"`
	// Name is the step: "admission", "plan", "node-get", "node-put",
	// "node-delete", "decode", "persist", "replicate"; a node server
	// records the batches it serves as "serve-get", "serve-put" and
	// "serve-delete".
	Name string `json:"name"`
	// Node is the cluster index a node batch went to, -1 for other steps.
	Node int `json:"node"`
	// Shards counts the shards of a node batch.
	Shards int           `json:"shards,omitempty"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur"`
}

// ring keeps the latest spans, overwriting the oldest once full. Its
// methods are safe for concurrent use.
type ring struct {
	mu    sync.Mutex
	spans []Span
	next  int  // where the next span goes
	full  bool // spans has wrapped: next is also the oldest
}

// DefaultRingSpans is the size of the rings a gateway and a node server
// start on the first traced request: a few hundred traced commits.
const DefaultRingSpans = 4096

func newRing(size int) *ring { return &ring{spans: make([]Span, max(size, 1))} }

func (r *ring) add(s Span) {
	r.mu.Lock()
	r.spans[r.next] = s
	r.next++
	if r.next == len(r.spans) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

// spansOf returns the spans of the given trace held, oldest first; trace 0
// returns every span held.
func (r *ring) spansOf(trace uint64) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	held := r.spans[:r.next]
	if r.full {
		held = append(r.spans[r.next:len(r.spans):len(r.spans)], held...)
	}
	var out []Span
	for _, s := range held {
		if trace == 0 || s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

// LazyRing is a ring made on the first traced request, so that a process
// nothing traces holds none. The zero value is ready to use.
type LazyRing struct{ ring atomic.Pointer[ring] }

// get returns the ring, making it on the first call.
func (l *LazyRing) get() *ring {
	if r := l.ring.Load(); r != nil {
		return r
	}
	l.ring.CompareAndSwap(nil, newRing(DefaultRingSpans))
	return l.ring.Load()
}

// Spans returns the spans of trace (0: all) the ring holds; none before
// the first traced request.
func (l *LazyRing) Spans(trace uint64) []Span {
	if r := l.ring.Load(); r != nil {
		return r.spansOf(trace)
	}
	return nil
}

// tracer is what a traced context carries: the id and, once a layer that
// owns a ring has taken the request, where its spans go.
type tracer struct {
	id   uint64
	ring *ring
}

type key struct{}

func from(ctx context.Context) *tracer {
	t, _ := ctx.Value(key{}).(*tracer)
	return t
}

// WithTrace returns ctx carrying trace id; id 0 means untraced and returns
// ctx as it is.
func WithTrace(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, key{}, &tracer{id: id})
}

// ID returns the trace id ctx carries, 0 for none.
func ID(ctx context.Context) uint64 {
	if t := from(ctx); t != nil {
		return t.id
	}
	return 0
}

// RecordInto returns ctx with the spans of its trace going to the ring the
// layer holds; an untraced ctx comes back as it is, and the ring is not
// made.
func RecordInto(ctx context.Context, spans *LazyRing) context.Context {
	t := from(ctx)
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, key{}, &tracer{id: t.id, ring: spans.get()})
}

// Timer times one span; its zero value, what an untraced context starts,
// records nothing.
type Timer struct {
	t     *tracer
	name  string
	start time.Time
}

// Start begins a span named name of the trace ctx carries.
func Start(ctx context.Context, name string) Timer {
	t := from(ctx)
	if t == nil || t.ring == nil {
		return Timer{}
	}
	return Timer{t: t, name: name, start: time.Now()}
}

// End records the span.
func (s Timer) End() { s.EndBatch(-1, 0) }

// EndBatch records the span of a batch of shards to one node.
func (s Timer) EndBatch(node, shards int) {
	if s.t == nil {
		return
	}
	s.t.ring.add(Span{Trace: s.t.id, Name: s.name, Node: node, Shards: shards, Start: s.start, Dur: time.Since(s.start)})
}
