// Command tracestat analyzes an execution trace written by the
// -trace flag of the experiment CLIs (vpattack, vpdefense, vpfigures,
// vpreport, vpsim): per-phase latency distributions, per-worker busy
// time and utilization, queue-wait statistics, and cancel/skip
// counts. Both trace formats are accepted — the JSONL event stream
// and the Chrome trace-event JSON array — sniffed from the first
// byte, so the same file feeds Perfetto and this tool.
//
//	vpattack -scenario fig5 -jobs 4 -trace fig5.jsonl
//	tracestat fig5.jsonl
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracestat <trace.jsonl|trace.json>")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
	events, err := parseTrace(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
	rep, err := analyze(events)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
	io.WriteString(os.Stdout, rep.text())
}

// report is the aggregated view of one trace.
type report struct {
	phases  []phaseStats
	workers []workerStats
	queue   []float64 // trial queue-wait samples, µs
	span    float64   // wall span of the trace (first B to last E), µs
	cancels int
	skips   int
	open    int // spans begun but never ended (truncated trace)
}

// phaseStats aggregates the durations of one span name.
type phaseStats struct {
	name      string
	durations []float64 // µs, sorted by analyze
	total     float64
}

// workerStats aggregates one worker lane.
type workerStats struct {
	tid   int
	name  string  // lane label from track metadata, when present
	span  float64 // summed worker-span durations, µs
	busy  float64 // summed trial durations, µs
	items int
}

// analyze pairs the begin/end events into spans and folds them into
// the report.
func analyze(events []event) (*report, error) {
	spans, counts, open, err := pair(events)
	if err != nil {
		return nil, err
	}
	rep := &report{
		cancels: counts["cancel"],
		skips:   counts["skip"],
		open:    open,
	}

	names := map[int]string{}
	for _, e := range events {
		if e.Ph == "M" {
			if n, ok := e.Attrs["name"].(string); ok {
				names[e.TID] = n
			}
		}
	}

	byPhase := map[string]*phaseStats{}
	workers := map[int]*workerStats{}
	var firstB, lastE float64
	seen := false
	for _, s := range spans {
		if !seen || s.start < firstB {
			firstB = s.start
		}
		if !seen || s.end > lastE {
			lastE = s.end
		}
		seen = true
		ps := byPhase[s.name]
		if ps == nil {
			ps = &phaseStats{name: s.name}
			byPhase[s.name] = ps
		}
		d := s.end - s.start
		ps.durations = append(ps.durations, d)
		ps.total += d

		switch s.name {
		case "worker":
			// += rather than =: a trace may hold several sequential
			// map calls (e.g. one per figure cell), each opening a
			// fresh worker span on the same lane.
			w := laneOf(workers, s.tid)
			w.span += d
		case "trial":
			w := laneOf(workers, s.tid)
			w.busy += d
			w.items++
			if q, ok := s.attrs["queue_us"].(float64); ok {
				rep.queue = append(rep.queue, q)
			}
		}
	}
	rep.span = lastE - firstB

	for _, ps := range byPhase {
		sort.Float64s(ps.durations)
		rep.phases = append(rep.phases, *ps)
	}
	sort.Slice(rep.phases, func(i, j int) bool { return rep.phases[i].name < rep.phases[j].name })
	for tid, w := range workers {
		w.name = names[tid]
		rep.workers = append(rep.workers, *w)
	}
	sort.Slice(rep.workers, func(i, j int) bool { return rep.workers[i].tid < rep.workers[j].tid })
	sort.Float64s(rep.queue)
	return rep, nil
}

// laneOf returns (creating on first use) the stats of one lane.
func laneOf(m map[int]*workerStats, tid int) *workerStats {
	w := m[tid]
	if w == nil {
		w = &workerStats{tid: tid}
		m[tid] = w
	}
	return w
}

// percentile returns the p-th percentile (0..100) of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// fmtUS renders a microsecond duration with an adaptive unit.
func fmtUS(us float64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.2fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.2fms", us/1e3)
	default:
		return fmt.Sprintf("%.0fµs", us)
	}
}

// text renders the report.
func (r *report) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace span: %s\n", fmtUS(r.span))
	if r.open > 0 {
		fmt.Fprintf(&b, "WARNING: %d spans never ended (truncated trace?)\n", r.open)
	}

	fmt.Fprintf(&b, "\nper-phase latency (µs):\n")
	fmt.Fprintf(&b, "  %-12s %7s %10s %10s %10s %10s %10s\n",
		"phase", "count", "p50", "p90", "p99", "max", "total")
	for _, ps := range r.phases {
		d := ps.durations
		fmt.Fprintf(&b, "  %-12s %7d %10.1f %10.1f %10.1f %10.1f %10s\n",
			ps.name, len(d), percentile(d, 50), percentile(d, 90), percentile(d, 99),
			d[len(d)-1], fmtUS(ps.total))
	}

	if len(r.workers) > 0 {
		fmt.Fprintf(&b, "\nworker lanes:\n")
		fmt.Fprintf(&b, "  %-12s %7s %10s %10s %6s\n", "lane", "items", "busy", "span", "util")
		minBusy, maxBusy := -1.0, 0.0
		for _, w := range r.workers {
			util := 0.0
			if w.span > 0 {
				util = w.busy / w.span
			}
			label := w.name
			if label == "" {
				label = fmt.Sprintf("tid %d", w.tid)
			}
			fmt.Fprintf(&b, "  %-12s %7d %10s %10s %5.0f%%\n",
				label, w.items, fmtUS(w.busy), fmtUS(w.span), util*100)
			if minBusy < 0 || w.busy < minBusy {
				minBusy = w.busy
			}
			if w.busy > maxBusy {
				maxBusy = w.busy
			}
		}
		if len(r.workers) > 1 && minBusy > 0 {
			fmt.Fprintf(&b, "  imbalance: slowest lane %.2fx the fastest\n", maxBusy/minBusy)
		}
	}

	if len(r.queue) > 0 {
		fmt.Fprintf(&b, "\nqueue wait (µs): p50 %.1f  p90 %.1f  max %.1f (%d samples)\n",
			percentile(r.queue, 50), percentile(r.queue, 90),
			r.queue[len(r.queue)-1], len(r.queue))
	}
	fmt.Fprintf(&b, "\nevents: %d cancelled, %d skipped\n", r.cancels, r.skips)
	return b.String()
}
