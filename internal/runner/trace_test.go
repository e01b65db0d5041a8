package runner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"vpsec/internal/metrics"
	"vpsec/internal/obs"
)

// captureSink records the event stream for structural assertions.
type captureSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *captureSink) Emit(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *captureSink) Close() error { return nil }

// count returns how many events match (name, phase).
func (s *captureSink) count(name string, ph byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.events {
		if e.Name == name && e.Ph == ph {
			n++
		}
	}
	return n
}

// TestMapTraceSpans: a traced parallel Map emits one map span, one
// worker span per pool worker on its own lane, and balanced trial/run
// spans for every item — and unwinds to zero open spans.
func TestMapTraceSpans(t *testing.T) {
	sink := &captureSink{}
	tr := obs.New(sink)
	reg := metrics.NewRegistry()
	const n = 20
	out, err := Map(context.Background(), Config{Jobs: 4, Metrics: reg, Trace: tr}, n, item)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("%d results, want %d", len(out), n)
	}
	if open := tr.OpenSpans(); open != 0 {
		t.Fatalf("%d spans still open after Map", open)
	}
	if got := sink.count("map", obs.PhaseBegin); got != 1 {
		t.Errorf("%d map spans, want 1", got)
	}
	if got := sink.count("worker", obs.PhaseBegin); got != 4 {
		t.Errorf("%d worker spans, want 4", got)
	}
	for _, name := range []string{"trial", "run"} {
		if b, e := sink.count(name, obs.PhaseBegin), sink.count(name, obs.PhaseEnd); b != n || e != n {
			t.Errorf("%s spans: %d begins / %d ends, want %d/%d", name, b, e, n, n)
		}
	}

	// Worker spans sit on lanes 1..jobs under the map span; trial
	// begins carry the queue-wait attribute.
	sink.mu.Lock()
	defer sink.mu.Unlock()
	var mapID uint64
	lanes := map[int]bool{}
	for _, e := range sink.events {
		if e.Ph != obs.PhaseBegin {
			continue
		}
		switch e.Name {
		case "map":
			mapID = e.Span
		case "worker":
			lanes[e.TID] = true
			if e.Parent != mapID {
				t.Errorf("worker parent = %d, want map id %d", e.Parent, mapID)
			}
		case "trial":
			found := false
			for _, a := range e.Attrs {
				if a.Key == "queue_us" {
					found = true
				}
			}
			if !found {
				t.Error("trial span missing queue_us attribute")
			}
		}
	}
	for w := 1; w <= 4; w++ {
		if !lanes[w] {
			t.Errorf("no worker span on lane %d", w)
		}
	}
}

// TestMapTraceRuntimeScope: a traced run records wall-clock durations
// into runtime.trial.seconds — present in the raw snapshot, stripped
// from every deterministic export.
func TestMapTraceRuntimeScope(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		tr := obs.New(&obs.CountingSink{})
		reg := metrics.NewRegistry()
		if _, err := Map(context.Background(), Config{Jobs: jobs, Metrics: reg, Trace: tr}, 10, item); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		snap := reg.Snapshot()
		h, ok := snap.Histograms[metrics.RuntimeScope+"trial.seconds"]
		if !ok {
			t.Fatalf("jobs=%d: runtime.trial.seconds missing from raw snapshot", jobs)
		}
		if h.Count != 10 {
			t.Errorf("jobs=%d: runtime.trial.seconds count = %d, want 10", jobs, h.Count)
		}
		if _, ok := snap.Deterministic().Histograms[metrics.RuntimeScope+"trial.seconds"]; ok {
			t.Errorf("jobs=%d: runtime scope leaked into Deterministic()", jobs)
		}
		j, err := snap.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(j), metrics.RuntimeScope) {
			t.Errorf("jobs=%d: runtime scope leaked into JSON export", jobs)
		}
	}
}

// TestMapTraceExportsIdentical: the deterministic exports of a traced
// run are byte-identical to an untraced run at every worker count —
// tracing is pure observability.
func TestMapTraceExportsIdentical(t *testing.T) {
	snap := func(jobs int, traced bool) string {
		var tr *obs.Tracer
		if traced {
			tr = obs.New(&obs.CountingSink{})
		}
		reg := metrics.NewRegistry()
		if _, err := Map(context.Background(), Config{Jobs: jobs, Metrics: reg, Trace: tr}, 17, item); err != nil {
			t.Fatal(err)
		}
		j, err := reg.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}
	want := snap(1, false)
	for _, jobs := range []int{1, 2, 4} {
		for _, traced := range []bool{false, true} {
			if got := snap(jobs, traced); got != want {
				t.Errorf("jobs=%d traced=%v: export differs from untraced sequential run", jobs, traced)
			}
		}
	}
}

// TestMapTraceCancellation: an item failure mid-map cancels the rest;
// every opened span still closes (the invariant the live progress
// display and the Chrome nesting depend on), and skip/cancel events
// mark the abandoned items.
func TestMapTraceCancellation(t *testing.T) {
	sink := &captureSink{}
	tr := obs.New(sink)
	boom := errors.New("boom")
	// Item 0 fails; every other item parks until the cancellation that
	// failure triggers. That pins the schedule: when cancel fires the
	// feeder still holds ~195 unsent items, so it must either abandon
	// one (a feeder "cancel" event) or hand it to a worker that has
	// already seen ctx.Err() (a worker "skip" event) — no interleaving
	// can drain the queue first.
	fail := func(ctx context.Context, i int, reg *metrics.Registry) (int, error) {
		if i == 0 {
			return 0, boom
		}
		<-ctx.Done()
		return i, nil
	}
	_, err := Map(context.Background(), Config{Jobs: 4, Trace: tr}, 200, fail)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if open := tr.OpenSpans(); open != 0 {
		t.Fatalf("%d spans still open after cancelled Map", open)
	}
	for _, name := range []string{"map", "worker", "trial"} {
		if b, e := sink.count(name, obs.PhaseBegin), sink.count(name, obs.PhaseEnd); b != e {
			t.Errorf("%s spans unbalanced: %d begins, %d ends", name, b, e)
		}
	}
	skips := sink.count("skip", obs.PhaseInstant) + sink.count("cancel", obs.PhaseInstant)
	if skips == 0 {
		t.Error("no skip/cancel events despite mid-map cancellation")
	}
	// The failing trial's end record carries the error.
	sink.mu.Lock()
	defer sink.mu.Unlock()
	found := false
	for _, e := range sink.events {
		if e.Name == "trial" && e.Ph == obs.PhaseEnd {
			for _, a := range e.Attrs {
				if a.Key == "error" && a.Val == boom.Error() {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("no trial end event carries the item error")
	}
}

// TestMapSequentialTrace: the Jobs == 1 legacy path emits the same
// map/trial structure (no worker lanes) so traces are comparable
// across -jobs settings.
func TestMapSequentialTrace(t *testing.T) {
	sink := &captureSink{}
	tr := obs.New(sink)
	if _, err := Map(context.Background(), Config{Jobs: 1, Trace: tr}, 5, item); err != nil {
		t.Fatal(err)
	}
	if got := sink.count("map", obs.PhaseBegin); got != 1 {
		t.Errorf("%d map spans, want 1", got)
	}
	if got := sink.count("trial", obs.PhaseBegin); got != 5 {
		t.Errorf("%d trial spans, want 5", got)
	}
	if got := sink.count("worker", obs.PhaseBegin); got != 0 {
		t.Errorf("%d worker spans on the sequential path, want 0", got)
	}
	if open := tr.OpenSpans(); open != 0 {
		t.Fatalf("%d spans still open", open)
	}
}
