package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one named measurement and its samples. The value the
// benchmark reports for it is the samples' median.
type metric struct {
	name, unit string
	vals       []float64
}

// report collects one workload run's metrics, outcome counts and check
// failures, and prints them.
type report struct {
	workload string
	cfg      config
	passes   int

	e2e   []metric // end-to-end metrics: the result with -trace 0
	layer []metric // per-layer metrics: the result with -trace 1
	info  []metric // workload-specific end-to-end figures, printed only
	spans *spanStats

	// digest and counts are the outputs every pass reproduced.
	digest string
	counts map[string]uint64

	attempted, failed int
	failures          []string
}

// maxFailureLines bounds the failure lines a report prints.
const maxFailureLines = 20

func (r *report) addE2E(name, unit string, vals ...float64) {
	r.e2e = append(r.e2e, metric{name, unit, vals})
}

func (r *report) addLayer(name, unit string, vals ...float64) {
	r.layer = append(r.layer, metric{name, unit, vals})
}

func (r *report) addInfo(name, unit string, vals ...float64) {
	r.info = append(r.info, metric{name, unit, vals})
}

// record folds a pass's operation counts and failures into the report.
func (r *report) record(label string, out passOut) {
	r.attempted += out.attempted
	r.failed += out.failed
	for _, f := range out.failures {
		r.failures = append(r.failures, label+": "+f)
	}
}

// check counts one correctness check as an attempted operation and, if
// it failed, as a failed one.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return r.failed == 0 }

// result is the JSON object the last line of output carries.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emitted returns the metrics the result line carries: the end-to-end
// metrics, or with tracing the per-layer ones.
func (r *report) emitted() []metric {
	if r.cfg.trace {
		return r.layer
	}
	return r.e2e
}

func (r *report) result() (result, error) {
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultItem{}}
	for _, m := range r.emitted() {
		v := median(m.vals)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is not finite", m.name)
		}
		res.Metrics[m.name] = resultItem{Value: v, Unit: m.unit}
	}
	return res, nil
}

// print writes the human-readable report and, as its last line, the
// JSON result.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "== %s: seed offset %d, %d timed passes, %s\n", r.workload, r.cfg.seed, r.passes, hostLine())
	printTable(w, "end-to-end", r.e2e)
	printTable(w, "workload figures", r.info)
	if r.cfg.trace {
		printTable(w, "per-layer", r.layer)
		r.printSpans(w)
	}
	if r.digest != "" {
		fmt.Fprintln(w, "output digest:", r.digest)
	}
	names := make([]string, 0, len(r.counts))
	for n := range r.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "output count: %s = %d\n", n, r.counts[n])
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed (fail_ratio %.6g)\n", r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for i, f := range r.failures {
		if i == maxFailureLines {
			fmt.Fprintf(w, "FAIL ... and %d more\n", len(r.failures)-i)
			break
		}
		fmt.Fprintln(w, "FAIL", f)
	}
	res, err := r.result()
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printTable(w io.Writer, title string, ms []metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(w, "%-36s %-12s %14s %14s %14s %6s\n", title, "unit", "median", "q1", "q3", "n")
	for _, m := range ms {
		s := summarize(m.vals)
		fmt.Fprintf(w, "  %-34s %-12s %14.6g %14.6g %14.6g %6d\n", m.name, m.unit, s.Median, s.Q1, s.Q3, s.N)
	}
}

// printSpans prints the traced pass's self time per span name.
func (r *report) printSpans(w io.Writer) {
	st := r.spans
	if st == nil || st.wall == 0 {
		return
	}
	fmt.Fprintf(w, "traced pass: %.4gs wall, spans beneath the pass cover %.1f%% of it\n",
		st.wall.Seconds(), 100*st.covered.Seconds()/st.wall.Seconds())
	names := make([]string, 0, len(st.self))
	for n := range st.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st.self[names[i]] > st.self[names[j]] })
	fmt.Fprintf(w, "  %-20s %10s %14s %10s\n", "span", "count", "self_s", "share")
	for _, n := range names {
		fmt.Fprintf(w, "  %-20s %10d %14.6g %9.2f%%\n", n, st.count[n], st.self[n].Seconds(), 100*share(st.self[n], st.wall))
	}
}

func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return part.Seconds() / whole.Seconds()
}
