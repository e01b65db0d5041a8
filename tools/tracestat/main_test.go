package main

import (
	"bytes"
	"strings"
	"testing"

	"vpsec/internal/obs"
)

// emitTrace writes a representative runner-shaped trace — a map span,
// two worker lanes with trials carrying queue waits, and a skip —
// through sink, and returns the tracer for closing.
func emitTrace(t *testing.T, sink obs.Sink) {
	t.Helper()
	tr := obs.New(sink)
	tr.NameTrack(0, "main")
	m := tr.Start("map", obs.Int("items", 4), obs.Int("jobs", 2))
	for w := 0; w < 2; w++ {
		tr.NameTrack(w+1, "worker")
		ws := m.ChildOn(w+1, "worker", obs.Int("worker", w))
		for i := 0; i < 2; i++ {
			item := w*2 + i
			s := ws.Child("trial", obs.Int("item", item), obs.Float("queue_us", float64(10*item)))
			if item == 3 {
				s.Event("skip", obs.Int("item", 99))
			}
			s.Child("run", obs.Int("attempt", 0)).End()
			s.End()
		}
		ws.End()
	}
	m.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkReport asserts the aggregate view both formats must produce.
func checkReport(t *testing.T, rep *report) {
	t.Helper()
	if rep.open != 0 {
		t.Errorf("%d open spans, want 0", rep.open)
	}
	if rep.skips != 1 || rep.cancels != 0 {
		t.Errorf("events = %d skips / %d cancels, want 1/0", rep.skips, rep.cancels)
	}
	byName := map[string]phaseStats{}
	for _, ps := range rep.phases {
		byName[ps.name] = ps
	}
	for name, want := range map[string]int{"map": 1, "worker": 2, "trial": 4, "run": 4} {
		if got := len(byName[name].durations); got != want {
			t.Errorf("%d %s spans, want %d", got, name, want)
		}
	}
	if len(rep.workers) != 2 {
		t.Fatalf("%d worker lanes, want 2", len(rep.workers))
	}
	for _, w := range rep.workers {
		if w.items != 2 {
			t.Errorf("lane %d ran %d items, want 2", w.tid, w.items)
		}
		if w.busy <= 0 || w.span < w.busy {
			t.Errorf("lane %d busy %.1f / span %.1f inconsistent", w.tid, w.busy, w.span)
		}
	}
	if len(rep.queue) != 4 {
		t.Fatalf("%d queue samples, want 4", len(rep.queue))
	}
	// Sorted samples of 0, 10, 20, 30 µs.
	if rep.queue[0] != 0 || rep.queue[3] != 30 {
		t.Errorf("queue samples = %v", rep.queue)
	}
}

// TestRoundTripJSONL: a JSONL trace parses and aggregates.
func TestRoundTripJSONL(t *testing.T) {
	var buf bytes.Buffer
	emitTrace(t, obs.NewJSONLSink(&buf))
	events, err := parseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep)
}

// TestRoundTripChrome: the same trace through the Chrome exporter
// yields the same aggregate view — id-less B/E pairing via the
// per-lane stacks.
func TestRoundTripChrome(t *testing.T) {
	var buf bytes.Buffer
	emitTrace(t, obs.NewChromeSink(&buf))
	events, err := parseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep)
}

// TestMultiMapLanes: one trace holding several sequential map calls
// (one per figure cell, say) reopens worker spans on the same lanes;
// the lane's span column must sum them all, or utilization would
// divide the busy time of every map by the span of just one.
func TestMultiMapLanes(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.New(obs.NewJSONLSink(&buf))
	tr.NameTrack(0, "main")
	for cell := 0; cell < 3; cell++ {
		m := tr.Start("map", obs.Int("items", 2), obs.Int("jobs", 1))
		ws := m.ChildOn(1, "worker", obs.Int("worker", 0))
		for i := 0; i < 2; i++ {
			ws.Child("trial", obs.Int("item", i)).End()
		}
		ws.End()
		m.End()
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := parseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.workers) != 1 {
		t.Fatalf("%d worker lanes, want 1", len(rep.workers))
	}
	w := rep.workers[0]
	if w.items != 6 {
		t.Errorf("lane ran %d items, want 6", w.items)
	}
	if w.busy <= 0 || w.span < w.busy {
		t.Errorf("lane busy %.1f / span %.1f inconsistent: span must cover all three maps", w.busy, w.span)
	}
}

// TestReportText: the rendering names every section a human scans
// for.
func TestReportText(t *testing.T) {
	var buf bytes.Buffer
	emitTrace(t, obs.NewJSONLSink(&buf))
	events, err := parseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	text := rep.text()
	for _, frag := range []string{
		"per-phase latency", "trial", "worker lanes", "util",
		"queue wait", "1 skipped",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("report missing %q:\n%s", frag, text)
		}
	}
}

// TestTruncatedTrace: a begin without an end is reported, not fatal.
func TestTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	tr := obs.New(sink)
	tr.Start("map") // never ended
	tr.Close()
	events, err := parseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if rep.open != 1 {
		t.Fatalf("open = %d, want 1", rep.open)
	}
	if !strings.Contains(rep.text(), "WARNING") {
		t.Error("truncated trace not flagged in the report")
	}
}

// TestParseErrors: garbage inputs fail with errors, not panics.
func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "not json\n", "[{\"ph\":\"E\",\"name\":\"x\",\"tid\":0}]"} {
		events, err := parseTrace(strings.NewReader(bad))
		if err != nil {
			continue // parse-level rejection is fine
		}
		if _, err := analyze(events); err == nil && len(events) > 0 {
			t.Errorf("input %q produced no error", bad)
		}
	}
}
