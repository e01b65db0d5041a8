// Package obs is the execution-observability layer: structured spans
// and events over the scenario→runner→trial stack, with live progress
// rendering and Perfetto-loadable trace export. It is the second
// pillar next to internal/metrics — metrics record *what* a run
// computed (deterministic, byte-identical across equal-seed runs),
// obs records *how* the run executed (wall-clock spans, worker
// scheduling, cancellations), and the two never mix: nothing obs emits
// reaches a deterministic export (see metrics.RuntimeScope for the
// one metrics scope obs-enabled runs populate, which the exporters
// strip).
//
// The design requirement is a free disabled path. A nil *Tracer is
// the off state: every method on a nil Tracer and on the zero Span
// returns immediately, so instrumented hot paths cost one pointer
// comparison when tracing is off. Call sites that build attributes
// guard on Tracer.Enabled or Span.Traced so the disabled path also
// allocates nothing (TestDisabledPathAllocs; tools/bench measures the
// cost of turning tracing on as obs.trace_overhead).
//
// Span identity is hierarchical (parent ids in the event stream) and
// spans carry a track id (TID) — one lane per runner worker — so
// Chrome trace-event consumers render one timeline row per worker.
// Events fan out to Sinks: JSONLSink (the tools/tracestat input),
// ChromeSink (load the file in Perfetto / chrome://tracing), and
// Progress (live stderr rendering). See DESIGN.md §12.
package obs

import (
	"context"
	"sync"
	"time"
)

// Event phases, mirroring the Chrome trace-event phase letters.
const (
	PhaseBegin    = 'B' // span start
	PhaseEnd      = 'E' // span end
	PhaseInstant  = 'i' // point event
	PhaseMetadata = 'M' // track naming
)

// Attr is one key/value attribute on a span or event. Values should
// be strings, integers or floats — things every sink can render.
type Attr struct {
	Key string
	Val any
}

// Str builds a string attribute.
func Str(key, val string) Attr { return Attr{Key: key, Val: val} }

// Int builds an integer attribute.
func Int(key string, val int) Attr { return Attr{Key: key, Val: val} }

// Float builds a float attribute.
func Float(key string, val float64) Attr { return Attr{Key: key, Val: val} }

// Event is one record of the trace stream: a span begin/end, an
// instant event, or track metadata. TS is the offset from the
// tracer's epoch (wall-clock data — events never feed deterministic
// exports).
type Event struct {
	TS     time.Duration
	Ph     byte
	Span   uint64 // span id; 0 for tracer-level metadata
	Parent uint64 // enclosing span id; 0 at the root
	TID    int    // track (timeline lane); 0 = main, w+1 = runner worker w
	Name   string
	Attrs  []Attr
}

// Sink consumes the event stream. The Tracer serializes Emit calls
// under its own lock, so implementations need no internal locking
// against concurrent Emits (Progress locks anyway because its
// render ticker runs on a separate goroutine). Close flushes and
// reports the first write error.
type Sink interface {
	Emit(Event)
	Close() error
}

// Tracer fans span and event records out to its sinks. The nil
// Tracer is the disabled state and every method on it is a no-op —
// instrumentation points never need to branch, though allocation-
// sensitive call sites should guard attribute construction with
// Enabled. Construct with New; a Tracer with no sinks is permitted
// (spans still balance, which the tests use).
type Tracer struct {
	epoch time.Time
	now   func() time.Time // injectable for deterministic tests

	mu    sync.Mutex
	sinks []Sink
	next  uint64 // last span id handed out
	open  int    // currently open spans
	named map[int]bool
}

// New builds an enabled tracer writing to sinks. The epoch — the zero
// point of every event timestamp — is the construction time.
func New(sinks ...Sink) *Tracer {
	t := &Tracer{
		epoch: time.Now(),
		now:   time.Now,
		sinks: sinks,
		named: make(map[int]bool),
	}
	return t
}

// Enabled reports whether the tracer records anything; it is the
// guard call sites use before building attributes.
func (t *Tracer) Enabled() bool { return t != nil }

// OpenSpans returns the number of spans started but not yet ended —
// zero after a fully unwound run, even a cancelled one (every
// instrumentation point ends its spans on all paths; the runner's
// cancellation tests assert this).
func (t *Tracer) OpenSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open
}

// emit stamps and fans one event out under the tracer lock.
func (t *Tracer) emit(ph byte, id, parent uint64, tid int, name string, attrs []Attr) {
	ts := t.now().Sub(t.epoch)
	t.mu.Lock()
	switch ph {
	case PhaseBegin:
		t.open++
	case PhaseEnd:
		t.open--
	}
	for _, s := range t.sinks {
		s.Emit(Event{TS: ts, Ph: ph, Span: id, Parent: parent, TID: tid, Name: name, Attrs: attrs})
	}
	t.mu.Unlock()
}

// start opens a span under parent on track tid.
func (t *Tracer) start(parent uint64, tid int, name string, attrs []Attr) Span {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	t.emit(PhaseBegin, id, parent, tid, name, attrs)
	return Span{t: t, id: id, tid: tid, name: name}
}

// Start opens a root span on the main track. Nil-safe: a nil tracer
// returns the zero Span, whose methods are all no-ops.
func (t *Tracer) Start(name string, attrs ...Attr) Span {
	if t == nil {
		return Span{}
	}
	return t.start(0, 0, name, attrs)
}

// StartIn opens a span as a child of the span carried by ctx (see
// NewContext), or a root span when ctx carries none.
func (t *Tracer) StartIn(ctx context.Context, name string, attrs ...Attr) Span {
	if t == nil {
		return Span{}
	}
	p := FromContext(ctx)
	return t.start(p.id, p.tid, name, attrs)
}

// NameTrack labels a timeline lane (Chrome thread_name metadata).
// Repeat calls for the same tid are dropped, so instrumentation can
// name lanes unconditionally.
func (t *Tracer) NameTrack(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.named[tid] {
		t.mu.Unlock()
		return
	}
	t.named[tid] = true
	t.mu.Unlock()
	t.emit(PhaseMetadata, 0, 0, tid, name, []Attr{Str("name", name)})
}

// Close flushes and closes every sink, returning the first error.
// Call once, after all spans have ended.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	sinks := t.sinks
	t.sinks = nil
	t.mu.Unlock()
	var first error
	for _, s := range sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Span is one traced interval. The zero Span is valid and inert —
// spans returned by a nil tracer, or pulled from a context that
// carries none, simply do nothing. Spans are values; copy freely.
type Span struct {
	t    *Tracer
	id   uint64
	tid  int
	name string
}

// Traced reports whether the span records anything — the guard for
// attribute-building call sites.
func (s Span) Traced() bool { return s.t != nil }

// Child opens a sub-span on the same track.
func (s Span) Child(name string, attrs ...Attr) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.start(s.id, s.tid, name, attrs)
}

// ChildOn opens a sub-span on another track (the runner gives each
// worker its own lane).
func (s Span) ChildOn(tid int, name string, attrs ...Attr) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.start(s.id, tid, name, attrs)
}

// Event emits an instant event inside the span, on the span's track.
func (s Span) Event(name string, attrs ...Attr) {
	if s.t == nil {
		return
	}
	s.t.emit(PhaseInstant, s.id, s.id, s.tid, name, attrs)
}

// End closes the span. Attrs are attached to the end record (the
// place for outcomes such as error markers). End on the zero
// Span is a no-op; ending a span twice is a bug the open-span count
// makes visible.
func (s Span) End(attrs ...Attr) {
	if s.t == nil {
		return
	}
	s.t.emit(PhaseEnd, s.id, 0, s.tid, s.name, attrs)
}

// ctxKey keys the active span in a context.
type ctxKey struct{}

// NewContext returns ctx carrying span, for handing the current span
// across an API boundary that only passes a context (runner.Map →
// trial functions).
func NewContext(ctx context.Context, span Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, span)
}

// FromContext returns the span carried by ctx, or the zero Span.
func FromContext(ctx context.Context) Span {
	s, _ := ctx.Value(ctxKey{}).(Span)
	return s
}
