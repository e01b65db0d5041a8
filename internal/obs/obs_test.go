package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordSink captures every event for structural assertions.
type recordSink struct {
	mu     sync.Mutex
	events []Event
	closed bool
}

func (s *recordSink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *recordSink) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// fakeClock makes tracer timestamps deterministic: every call to now
// advances the clock by step, so golden outputs are stable.
func fakeClock(t *Tracer, step time.Duration) {
	epoch := time.Unix(0, 0)
	t.epoch = epoch
	n := 0
	t.now = func() time.Time {
		n++
		return epoch.Add(time.Duration(n) * step)
	}
}

// TestNilTracerIsInert: every method on the nil tracer and the zero
// span is a no-op — the disabled path instrumentation relies on.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("nil tracer has %d open spans", n)
	}
	span := tr.Start("root", Str("k", "v"))
	if span.Traced() {
		t.Fatal("span from nil tracer reports traced")
	}
	child := span.Child("child")
	child.Event("evt")
	child.End()
	span.ChildOn(3, "lane").End()
	span.End()
	tr.NameTrack(0, "main")
	if err := tr.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	// The zero span from a bare context is equally inert.
	got := FromContext(context.Background())
	if got.Traced() {
		t.Fatal("zero-span context reports traced")
	}
	tr.StartIn(context.Background(), "x").End()
}

// TestDisabledPathAllocs: the off state allocates nothing at the
// instrumentation points — the property that makes untraced runs pay
// only a pointer comparison per site. Call sites guard attribute
// construction with Enabled/Traced, so the measured pattern mirrors
// real use.
func TestDisabledPathAllocs(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			t.Fatal("enabled")
		}
		span := tr.StartIn(ctx, "map")
		if span.Traced() {
			t.Fatal("traced")
		}
		child := span.Child("trial")
		child.End()
		span.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
}

// TestSpanHierarchy: ids link children to parents, tracks propagate
// through Child and switch through ChildOn, and the open-span count
// balances to zero.
func TestSpanHierarchy(t *testing.T) {
	sink := &recordSink{}
	tr := New(sink)
	root := tr.Start("scenario", Str("kind", "case"))
	m := root.Child("map", Int("items", 2))
	w := m.ChildOn(1, "worker", Int("worker", 0))
	if tr.OpenSpans() != 3 {
		t.Fatalf("open = %d, want 3", tr.OpenSpans())
	}
	w.Event("retry", Int("attempt", 1))
	w.End()
	m.End()
	root.End()
	if tr.OpenSpans() != 0 {
		t.Fatalf("open = %d after unwinding, want 0", tr.OpenSpans())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !sink.closed {
		t.Fatal("sink not closed")
	}

	byName := map[string]Event{}
	for _, e := range sink.events {
		if e.Ph == PhaseBegin || e.Ph == PhaseInstant {
			byName[e.Name] = e
		}
	}
	sc, mp, wk, rt := byName["scenario"], byName["map"], byName["worker"], byName["retry"]
	if sc.Parent != 0 {
		t.Errorf("scenario parent = %d, want 0 (root)", sc.Parent)
	}
	if mp.Parent != sc.Span {
		t.Errorf("map parent = %d, want scenario id %d", mp.Parent, sc.Span)
	}
	if wk.Parent != mp.Span {
		t.Errorf("worker parent = %d, want map id %d", wk.Parent, mp.Span)
	}
	if mp.TID != 0 || wk.TID != 1 {
		t.Errorf("tids: map %d (want 0), worker %d (want 1)", mp.TID, wk.TID)
	}
	if rt.Parent != wk.Span || rt.TID != 1 {
		t.Errorf("retry: parent %d tid %d, want %d / 1", rt.Parent, rt.TID, wk.Span)
	}
}

// TestStartInChildren: StartIn nests under the context's span and
// falls back to a root span on a bare context.
func TestStartInChildren(t *testing.T) {
	sink := &recordSink{}
	tr := New(sink)
	parent := tr.Start("outer")
	ctx := NewContext(context.Background(), parent)
	inner := tr.StartIn(ctx, "inner")
	inner.End()
	parent.End()
	orphan := tr.StartIn(context.Background(), "orphan")
	orphan.End()
	tr.Close()

	for _, e := range sink.events {
		if e.Ph != PhaseBegin {
			continue
		}
		switch e.Name {
		case "inner":
			if e.Parent == 0 {
				t.Error("inner span has no parent")
			}
		case "orphan":
			if e.Parent != 0 {
				t.Errorf("orphan parent = %d, want 0", e.Parent)
			}
		}
	}
}

// TestNameTrackDedupe: repeat labels for a lane emit one metadata
// record, so per-item instrumentation can name lanes unconditionally.
func TestNameTrackDedupe(t *testing.T) {
	sink := &recordSink{}
	tr := New(sink)
	for i := 0; i < 5; i++ {
		tr.NameTrack(2, "worker 1")
	}
	tr.NameTrack(3, "worker 2")
	tr.Close()
	n := 0
	for _, e := range sink.events {
		if e.Ph == PhaseMetadata {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("%d metadata events, want 2", n)
	}
}

// TestConcurrentSpans: hammer one tracer from many goroutines — the
// race detector checks the locking, the open count checks balance.
func TestConcurrentSpans(t *testing.T) {
	sink := &CountingSink{}
	tr := New(sink)
	root := tr.Start("map")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := root.ChildOn(w+1, "worker", Int("worker", w))
			for i := 0; i < 50; i++ {
				s := ws.Child("trial", Int("item", i))
				s.Event("mark")
				s.End()
			}
			ws.End()
		}(w)
	}
	wg.Wait()
	root.End()
	if tr.OpenSpans() != 0 {
		t.Fatalf("open = %d, want 0", tr.OpenSpans())
	}
	// 1 map B/E + 8 worker B/E + 8*50 trial B/E + 8*50 instants.
	want := 2 + 16 + 800 + 400
	if sink.Count() != want {
		t.Fatalf("count = %d, want %d", sink.Count(), want)
	}
	if !strings.Contains(sink.String(), "events") {
		t.Fatalf("String() = %q", sink.String())
	}
}

// TestJSONLSink: the stream is one parsable object per line with the
// documented field names.
func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONLSink(&buf))
	fakeClock(tr, time.Millisecond)
	span := tr.Start("trial", Int("item", 3))
	span.End(Str("error", "nope"))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2:\n%s", len(lines), buf.String())
	}
	var rec struct {
		TS    float64        `json:"ts"`
		Ph    string         `json:"ph"`
		ID    uint64         `json:"id"`
		TID   int            `json:"tid"`
		Name  string         `json:"name"`
		Attrs map[string]any `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0: %v", err)
	}
	if rec.Ph != "B" || rec.Name != "trial" || rec.ID == 0 || rec.TS != 1000 {
		t.Fatalf("begin record = %+v", rec)
	}
	if got := rec.Attrs["item"]; got != float64(3) {
		t.Fatalf("item attr = %v", got)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("line 1: %v", err)
	}
	if rec.Ph != "E" || rec.Attrs["error"] != "nope" {
		t.Fatalf("end record = %+v", rec)
	}
}

// TestChromeSinkGolden: a fixed span tree with an injected clock
// renders to the exact Chrome trace-event JSON Perfetto loads — the
// round-trip format contract.
func TestChromeSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewChromeSink(&buf))
	fakeClock(tr, time.Millisecond)
	tr.NameTrack(0, "main")
	root := tr.Start("map", Int("items", 1))
	trial := root.Child("trial", Int("item", 0))
	trial.Event("retry", Int("attempt", 1))
	trial.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	const want = `[
{"name":"thread_name","ph":"M","ts":1000,"pid":1,"tid":0,"args":{"name":"main"}},
{"name":"map","ph":"B","ts":2000,"pid":1,"tid":0,"args":{"items":1}},
{"name":"trial","ph":"B","ts":3000,"pid":1,"tid":0,"args":{"item":0}},
{"name":"retry","ph":"i","ts":4000,"pid":1,"tid":0,"s":"t","args":{"attempt":1}},
{"name":"trial","ph":"E","ts":5000,"pid":1,"tid":0},
{"name":"map","ph":"E","ts":6000,"pid":1,"tid":0}
]
`
	if buf.String() != want {
		t.Fatalf("chrome output mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}

	// And it is valid JSON a trace viewer can decode.
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not a JSON array: %v", err)
	}
	if len(events) != 6 {
		t.Fatalf("%d events decoded, want 6", len(events))
	}
}

// TestProgress: the renderer folds the span stream into the status
// line — counts, rate, utilization, cancellations — and Close emits
// the final summary.
func TestProgress(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, time.Hour) // tick never fires; drive line() via Close
	tr := New(p)
	fakeClock(tr, time.Millisecond)
	m := tr.Start("map", Int("items", 4), Int("jobs", 2))
	for i := 0; i < 3; i++ {
		m.Child("trial", Int("item", i)).End()
	}
	m.Child("trial", Int("item", 3)).Event("cancel")
	line := p.line()
	for _, frag := range []string{"3/4 trials", "trials/s", "ETA", "workers", "1 cancelled"} {
		if !strings.Contains(line, frag) {
			t.Errorf("line %q missing %q", line, frag)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Fatalf("final render %q not newline-terminated", buf.String())
	}
}

// TestProgressAttrInt: the attribute decoder accepts the int forms a
// live tracer emits and the float64 a JSON round-trip delivers.
func TestProgressAttrInt(t *testing.T) {
	attrs := []Attr{{Key: "a", Val: 7}, {Key: "b", Val: int64(8)}, {Key: "c", Val: float64(9)}}
	for key, want := range map[string]int{"a": 7, "b": 8, "c": 9, "missing": 0} {
		if got := attrInt(attrs, key); got != want {
			t.Errorf("attrInt(%q) = %d, want %d", key, got, want)
		}
	}
}
