package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"

	"vpsec/internal/obs"
)

// span is one completed span of the traced pass.
type span struct {
	id, parent uint64
	tid        int
	name       string
	start, end time.Duration
	queueUS    float64 // runner trial spans: how long the item waited for a worker
}

// spanSink is an in-memory obs.Sink: it keeps one record per span while
// the traced pass runs and does all analysis and output afterwards, so
// tracing adds no I/O to the pass. The tracer serializes Emit calls.
type spanSink struct {
	spans []span
	open  map[uint64]int // span id -> index into spans
}

func newSpanSink() *spanSink { return &spanSink{open: map[uint64]int{}} }

func (s *spanSink) Emit(e obs.Event) {
	switch e.Ph {
	case obs.PhaseBegin:
		sp := span{id: e.Span, parent: e.Parent, tid: e.TID, name: e.Name, start: e.TS}
		for _, a := range e.Attrs {
			if v, ok := a.Val.(float64); ok && a.Key == "queue_us" {
				sp.queueUS = v
			}
		}
		s.open[e.Span] = len(s.spans)
		s.spans = append(s.spans, sp)
	case obs.PhaseEnd:
		if i, ok := s.open[e.Span]; ok {
			s.spans[i].end = e.TS
			delete(s.open, e.Span)
		}
	}
}

func (s *spanSink) Close() error { return nil }

// spanStats is the analysis of one traced pass.
type spanStats struct {
	wall    time.Duration            // the root span's duration
	covered time.Duration            // the part of it the spans beneath cover
	self    map[string]time.Duration // self time per span name, root excluded
	count   map[string]int           // spans per name, root excluded

	queueWait, trialBusy time.Duration // runner trial spans that carry a queue wait
}

// analyse computes self times under the root span, the first span the
// tracer recorded (the benchmark opens it around the traced pass). A span's self time
// is its duration minus the union of its children's intervals. A span
// with no recorded parent (a root span the program opened itself, such
// as the scenario span, or a runner map started without a context span)
// is adopted by the innermost span on its track that encloses it in
// time: the benchmark's span around the call that opened it.
func (s *spanSink) analyse() spanStats {
	st := spanStats{self: map[string]time.Duration{}, count: map[string]int{}}
	if len(s.spans) == 0 {
		return st
	}
	rootID := s.spans[0].id
	known := make(map[uint64]bool, len(s.spans))
	for _, sp := range s.spans {
		known[sp.id] = true
	}
	byStart := append([]span(nil), s.spans...)
	sort.SliceStable(byStart, func(i, j int) bool { return byStart[i].start < byStart[j].start })
	stacks := map[int][]span{} // per track: the spans enclosing the current start
	children := map[uint64][]span{}
	for _, sp := range byStart {
		stack := stacks[sp.tid]
		for len(stack) > 0 && stack[len(stack)-1].end <= sp.start {
			stack = stack[:len(stack)-1]
		}
		p := sp.parent
		if !known[p] && sp.id != rootID {
			p = rootID
			if len(stack) > 0 && stack[len(stack)-1].end >= sp.end {
				p = stack[len(stack)-1].id
			}
		}
		stacks[sp.tid] = append(stack, sp)
		if sp.id != rootID {
			children[p] = append(children[p], sp)
		}
	}
	for _, sp := range s.spans {
		covered := union(sp, children[sp.id])
		if sp.id == rootID {
			st.wall, st.covered = sp.end-sp.start, covered
			continue
		}
		st.self[sp.name] += sp.end - sp.start - covered
		st.count[sp.name]++
		if sp.name == "trial" && sp.queueUS > 0 {
			st.queueWait += time.Duration(sp.queueUS * 1e3)
			st.trialBusy += sp.end - sp.start
		}
	}
	return st
}

// union is the length of the union of the children's intervals,
// clipped to the parent's.
func union(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	lo, hi := kids[0].start, kids[0].end
	for _, k := range kids[1:] {
		if k.start > hi {
			total += clip(lo, hi, parent)
			lo, hi = k.start, k.end
		} else if k.end > hi {
			hi = k.end
		}
	}
	return total + clip(lo, hi, parent)
}

func clip(lo, hi time.Duration, parent span) time.Duration {
	lo, hi = max(lo, parent.start), min(hi, parent.end)
	return max(hi-lo, 0)
}

// durations returns the durations of the spans with the given name.
func (s *spanSink) durations(name string) []float64 {
	var out []float64
	for _, sp := range s.spans {
		if sp.name == name {
			out = append(out, (sp.end - sp.start).Seconds())
		}
	}
	return out
}

// write saves the spans as JSON lines: name, id, parent, track, start
// and duration in microseconds since the tracer's epoch.
func (s *spanSink) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.spans {
		rec := struct {
			Name    string  `json:"name"`
			ID      uint64  `json:"id"`
			Parent  uint64  `json:"parent"`
			TID     int     `json:"tid"`
			StartUS float64 `json:"start_us"`
			DurUS   float64 `json:"dur_us"`
		}{sp.name, sp.id, sp.parent, sp.tid, float64(sp.start.Nanoseconds()) / 1e3, float64((sp.end - sp.start).Nanoseconds()) / 1e3}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
