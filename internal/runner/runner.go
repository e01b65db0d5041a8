// Package runner is the parallel experiment executor behind the -jobs
// flag: it fans independent work items (attack trials, sweep cells)
// over a bounded worker pool while keeping every result byte-identical
// to the sequential path.
//
// The determinism contract (DESIGN.md §8) rests on three properties:
//
//   - Work items are self-seeding. The item index is part of the fan-out,
//     so each item derives its RNG seed from (base seed, index) alone and
//     never from scheduling order.
//   - Results are returned positionally. Map's output slice is indexed by
//     item, so callers assemble observations in item order no matter
//     which worker finished first.
//   - Metrics are merged exactly. Each worker records into a private
//     metrics.Registry that the barrier folds into the shared one;
//     counter adds and histogram merges are commutative and exact
//     (every simulator observation is integral and far below 2^53), and
//     the totals-derived gauges (cpu.ipc, pred.*.accuracy,
//     mem.*.hit_rate) are recomputed from the merged totals afterwards.
//
// Jobs == 1 bypasses all of this: items run inline on the caller's
// goroutine, writing the shared registry directly — the legacy
// sequential path, preserved bit-for-bit.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"vpsec/internal/metrics"
	"vpsec/internal/obs"
)

// DefaultRetries is the number of times a failed work item is retried
// (on a fresh attempt registry) before the whole Map is abandoned.
// The simulator is deterministic, so retries exist for fn
// implementations with external failure modes, not for flaky trials.
const DefaultRetries = 1

// Config parameterizes one Map call.
type Config struct {
	// Jobs bounds the number of work items executed concurrently.
	// 0 means runtime.NumCPU(). 1 selects the legacy sequential path:
	// items run inline in index order, write Metrics directly, and the
	// first error aborts immediately — exactly the pre-runner loop.
	Jobs int

	// Retries is the per-item retry budget after the first failure.
	// 0 means DefaultRetries; negative disables retry. The sequential
	// path (Jobs == 1) never retries, matching the legacy loops.
	Retries int

	// Metrics, when non-nil, receives every successful item's metrics.
	// With Jobs == 1 items write it directly; otherwise each attempt
	// records into a private registry, successful attempts fold into a
	// per-worker registry, and the barrier merges the workers back here
	// (failed attempts never pollute it). Nil disables all metrics
	// plumbing — fn is handed a nil registry.
	Metrics *metrics.Registry

	// Trace, when non-nil, records execution spans into the tracer (see
	// internal/obs): one "map" span per call, one "worker" span per pool
	// worker on its own timeline lane, and per-item "trial" spans with
	// queue-wait attributes, "run"/"merge" child phases, and
	// retry/skip/cancel instant events. Each item's context carries its
	// trial span (obs.FromContext), so fn implementations can nest their
	// own phase spans under it. Tracing is wall-clock observability on
	// the side: results and the deterministic content of Metrics are
	// unaffected — the only registry write it adds is the
	// runtime.trial.seconds histogram, which lives in the sanctioned
	// non-deterministic metrics.RuntimeScope that every exporter strips.
	Trace *obs.Tracer
}

// trialSecondsBounds buckets wall-clock per-item durations; simulator
// trials run hundreds of microseconds to tens of milliseconds.
var trialSecondsBounds = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// observeTrialSeconds records one successful item's wall-clock
// duration into the non-deterministic runtime.* scope. Only traced
// runs call it, so untraced runs register no runtime.* names at all;
// either way the exporters strip the scope, keeping metrics and
// manifest exports byte-identical with tracing on or off.
func observeTrialSeconds(reg *metrics.Registry, sec float64) {
	if reg == nil {
		return
	}
	reg.Histogram(metrics.RuntimeScope+"trial.seconds",
		"wall-clock seconds per work item (non-deterministic scope, stripped from exports)",
		trialSecondsBounds).Observe(sec)
}

// Map executes fn for every index in [0, n) and returns the results in
// index order. fn must be a pure function of (index, reg): it derives
// any randomness from the index, records metrics only through reg, and
// shares no mutable state with other items — that is what makes the
// output independent of Jobs.
//
// The context cancels in-flight work: queued items are skipped,
// running items see ctx done, and Map returns ctx.Err(). On item
// failure the remaining items are cancelled and Map reports the
// lowest-indexed recorded error (preferring real errors over the
// cancellations it caused). The result slice is nil on error.
func Map[T any](ctx context.Context, cfg Config, n int, fn func(ctx context.Context, index int, reg *metrics.Registry) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative item count %d", n)
	}
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		return mapSequential(ctx, cfg, n, fn)
	}

	retries := cfg.Retries
	switch {
	case retries == 0:
		retries = DefaultRetries
	case retries < 0:
		retries = 0
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The map span and the per-item enqueue timestamps (for the trial
	// spans' queue-wait attribute) exist only when tracing is on; the
	// disabled path allocates nothing here.
	var mspan obs.Span
	var queuedAt []time.Time
	if cfg.Trace.Enabled() {
		cfg.Trace.NameTrack(0, "main")
		mspan = cfg.Trace.StartIn(ctx, "map", obs.Int("items", n), obs.Int("jobs", jobs))
		queuedAt = make([]time.Time, n)
	}

	out := make([]T, n)
	errs := make([]error, n)
	regs := make([]*metrics.Registry, jobs)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < jobs; w++ {
		var wreg *metrics.Registry
		if cfg.Metrics != nil {
			wreg = metrics.NewRegistry()
			regs[w] = wreg
		}
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker gets its own timeline lane (tid w+1; lane 0 is
			// the feeding goroutine), so Chrome trace viewers render one
			// row per worker with the trial spans nested inside.
			var wspan obs.Span
			if mspan.Traced() {
				cfg.Trace.NameTrack(w+1, fmt.Sprintf("worker %d", w))
				wspan = mspan.ChildOn(w+1, "worker", obs.Int("worker", w))
				defer wspan.End()
			}
			for i := range work {
				if ctx.Err() != nil {
					if wspan.Traced() {
						wspan.Event("skip", obs.Int("item", i))
					}
					continue // drain the queue after cancellation
				}
				var tspan obs.Span
				ictx := ctx
				if wspan.Traced() {
					// The channel send happens-before this receive, so the
					// feeder's queuedAt[i] write is visible here.
					tspan = wspan.Child("trial", obs.Int("item", i),
						obs.Float("queue_us", float64(time.Since(queuedAt[i]).Nanoseconds())/1e3))
					ictx = obs.NewContext(ctx, tspan)
				}
				v, err := runItem(ictx, i, wreg, retries, tspan, fn)
				if err != nil {
					if tspan.Traced() {
						tspan.End(obs.Str("error", err.Error()))
					}
					errs[i] = err
					cancel()
					continue
				}
				out[i] = v
				tspan.End()
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		if queuedAt != nil {
			queuedAt[i] = time.Now()
		}
		select {
		case work <- i:
		case <-ctx.Done():
			if mspan.Traced() {
				mspan.Event("cancel", obs.Int("item", i))
			}
			break feed
		}
	}
	close(work)
	wg.Wait()
	mspan.End()

	// The barrier: fold the workers into the shared registry, then
	// recompute the totals-derived gauges so they match the values the
	// sequential path's last writes would have left.
	if cfg.Metrics != nil {
		for _, wreg := range regs {
			cfg.Metrics.Merge(wreg)
		}
		refreshDerivedGauges(cfg.Metrics)
	}

	// Prefer the lowest-indexed real error; an item that merely
	// observed the cancellation a sibling's failure triggered is only
	// reported when nothing better was recorded.
	var fallback error
	fallbackAt := -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("runner: item %d: %w", i, err)
		}
		if fallback == nil {
			fallback, fallbackAt = err, i
		}
	}
	if fallback != nil {
		return nil, fmt.Errorf("runner: item %d: %w", fallbackAt, fallback)
	}
	// A cancellation that no running item observed still skipped the
	// queued ones: out holds zero values for them, so it is no result.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// mapSequential is the Jobs == 1 legacy path: inline, in index order,
// writing cfg.Metrics directly, failing fast, never retrying — the
// exact behavior of the pre-runner trial loops.
func mapSequential[T any](ctx context.Context, cfg Config, n int, fn func(ctx context.Context, index int, reg *metrics.Registry) (T, error)) ([]T, error) {
	var mspan obs.Span
	if cfg.Trace.Enabled() {
		cfg.Trace.NameTrack(0, "main")
		mspan = cfg.Trace.StartIn(ctx, "map", obs.Int("items", n), obs.Int("jobs", 1))
		defer mspan.End()
	}
	out := make([]T, n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			if mspan.Traced() {
				mspan.Event("cancel", obs.Int("item", i))
			}
			return nil, err
		}
		ictx := ctx
		var tspan obs.Span
		var t0 time.Time
		if mspan.Traced() {
			tspan = mspan.Child("trial", obs.Int("item", i))
			ictx = obs.NewContext(ctx, tspan)
			t0 = time.Now()
		}
		v, err := fn(ictx, i, cfg.Metrics)
		if err != nil {
			if tspan.Traced() {
				tspan.End(obs.Str("error", err.Error()))
			}
			return nil, fmt.Errorf("runner: item %d: %w", i, err)
		}
		if tspan.Traced() {
			observeTrialSeconds(cfg.Metrics, time.Since(t0).Seconds())
			tspan.End()
		}
		out[i] = v
	}
	return out, nil
}

// runItem executes one work item with bounded retry. Every attempt
// records into a fresh scratch registry; only a successful attempt's
// scratch is folded into the worker registry, so a failed-then-retried
// item contributes exactly one trial's worth of metrics.
func runItem[T any](ctx context.Context, i int, wreg *metrics.Registry, retries int, span obs.Span, fn func(ctx context.Context, index int, reg *metrics.Registry) (T, error)) (T, error) {
	var zero T
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if span.Traced() {
				span.Event("cancel", obs.Int("attempt", attempt))
			}
			if err == nil {
				err = cerr
			}
			return zero, err
		}
		var scratch *metrics.Registry
		if wreg != nil {
			scratch = metrics.NewRegistry()
		}
		var rspan obs.Span
		var t0 time.Time
		if span.Traced() {
			if attempt > 0 {
				span.Event("retry", obs.Int("attempt", attempt))
			}
			rspan = span.Child("run", obs.Int("attempt", attempt))
			t0 = time.Now()
		}
		var v T
		v, err = fn(ctx, i, scratch)
		if rspan.Traced() {
			rspan.End()
		}
		if err == nil {
			if wreg != nil {
				if span.Traced() {
					msp := span.Child("merge")
					wreg.Merge(scratch)
					msp.End()
				} else {
					wreg.Merge(scratch)
				}
			}
			if span.Traced() {
				observeTrialSeconds(wreg, time.Since(t0).Seconds())
			}
			return v, nil
		}
	}
	return zero, err
}

// refreshDerivedGauges recomputes the ratio gauges that the simulator
// publishes from registry totals — cpu.ipc (internal/cpu publishRun),
// pred.<scope>.accuracy (publishPredictor) and mem.<scope>.hit_rate
// (internal/mem hitRateGauge) — from the registry's post-merge counter
// totals, using the publishers' exact formulas. Merging alone would
// leave each gauge at the last-merged worker's partial value; after
// this refresh they equal the values the sequential path's final
// publish left, bit for bit. Only gauges already present are touched,
// so the registered-name set also matches the sequential run.
func refreshDerivedGauges(reg *metrics.Registry) {
	names := reg.Names()
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	counter := func(name string) uint64 { return reg.Counter(name, "").Value() }
	for _, n := range names {
		switch {
		case n == "cpu.ipc":
			if !have["cpu.cycles"] || !have["cpu.commit.retired"] {
				continue
			}
			if cycles := counter("cpu.cycles"); cycles > 0 {
				retired := counter("cpu.commit.retired")
				reg.Gauge(n, "").Set(float64(retired) / float64(cycles))
			}
		case strings.HasPrefix(n, "pred.") && strings.HasSuffix(n, ".accuracy"):
			scope := strings.TrimSuffix(n, "accuracy")
			if !have[scope+"correct"] || !have[scope+"mispredicts"] {
				continue
			}
			correct := counter(scope + "correct")
			wrong := counter(scope + "mispredicts")
			if v := correct + wrong; v > 0 {
				reg.Gauge(n, "").Set(float64(correct) / float64(v))
			}
		case strings.HasPrefix(n, "mem.") && strings.HasSuffix(n, ".hit_rate"):
			scope := strings.TrimSuffix(n, "hit_rate")
			if !have[scope+"hits"] || !have[scope+"misses"] {
				continue
			}
			hits := counter(scope + "hits")
			misses := counter(scope + "misses")
			if total := hits + misses; total > 0 {
				reg.Gauge(n, "").Set(float64(hits) / float64(total))
			}
		}
	}
}
