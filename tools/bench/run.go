package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	rmetrics "runtime/metrics"
	"syscall"
	"time"

	"vpsec/internal/metrics"
	"vpsec/internal/obs"
)

// ledger holds the outputs every later pass must reproduce: the first
// digest and the first value seen of every count.
type ledger struct {
	digest string
	counts map[string]uint64
}

// observe compares a pass's outputs with those seen before and records
// any new ones.
func (l *ledger) observe(rep *report, label, digest string, counts map[string]uint64) {
	if digest != "" {
		if l.digest == "" {
			l.digest = digest
		} else {
			rep.check(digest == l.digest, "%s: digest %s, earlier passes %s", label, digest, l.digest)
		}
	}
	for name, v := range counts {
		if prev, ok := l.counts[name]; ok {
			rep.check(v == prev, "%s: %s = %d, earlier passes %d", label, name, v, prev)
		} else {
			l.counts[name] = v
		}
	}
}

// verify checks the ledger against the pinned values.
func (l *ledger) verify(rep *report, p pin, when string) {
	if p.Digest != "" {
		rep.check(l.digest == p.Digest, "digest %s, pinned %s %s", l.digest, when, p.Digest)
	}
	for name, want := range p.Counts {
		got, ok := l.counts[name]
		rep.check(ok && got == want, "%s = %d, pinned %s %d", name, got, when, want)
	}
}

// layerCounters are the registry counters the per-layer report carries
// from the counted pass.
var layerCounters = []string{
	"cpu.cycles", "cpu.commit.retired", "cpu.fetch.instrs", "cpu.commit.squashes",
	"cpu.replay.instrs", "cpu.vps.predictions", "cpu.vps.wrong",
	"mem.l1d.hits", "mem.l1d.misses", "mem.l2.hits", "mem.l2.misses", "mem.dram.reads",
}

// sweepKinds are the scenario kinds the registry sweep executes; the
// per-layer report gives each one's share of a pass.
var sweepKinds = []string{
	"case", "variant", "eviction", "smt", "table3", "figure",
	"noise-sweep", "conf-sweep", "defense-sweep", "defense-matrix",
}

// runtimeSample reads cumulative Go runtime metrics.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

var runtimeNames = []string{
	"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]rmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rmetrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case rmetrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2)}
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// registryDigest hashes a registry's deterministic export.
func registryDigest(reg *metrics.Registry) (string, error) {
	data, err := reg.Snapshot().Deterministic().JSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// run measures one workload (measure) and, with tracing, runs the layer
// probes. It returns the report and, with tracing, the traced pass's
// spans.
func run(w workload, cfg config, p pins) (*report, *spanSink, error) {
	rep := &report{workload: w.name, cfg: cfg}
	led := &ledger{counts: map[string]uint64{}}
	sink, err := measure(rep, w, cfg, led)
	if err != nil {
		return nil, nil, err
	}
	if cfg.trace {
		ms, err := layerMetrics(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("layer probes: %w", err)
		}
		rep.layer = append(rep.layer, ms...)
	}
	if cfg.full() {
		led.verify(rep, p.Always, "at every seed")
		if cfg.seed == 0 {
			led.verify(rep, p.Seed0, "at seed 0")
		}
	}
	rep.digest, rep.counts = led.digest, led.counts
	return rep, sink, nil
}

// measure sets the workload up and, within the time budget, runs its
// warm-up pass, the start-up probes, the timed passes and the counted
// pass; with tracing, the traced pass follows.
//
// Host speed on a shared machine drifts over seconds to minutes, so the
// start-up probes are spread over the budget between the timed passes:
// every end-to-end metric is a median over samples from the whole run,
// not from one stretch of it. The warm-up pass and the cold probes are
// the samples of cold_pass_s.
func measure(rep *report, w workload, cfg config, led *ledger) (*spanSink, error) {
	start := time.Now()
	inst, err := w.setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()

	t0 := time.Now()
	first, err := inst.pass(passOpts{})
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	colds := []float64{time.Since(t0).Seconds()}
	rep.record("warm-up pass", first)
	led.observe(rep, "warm-up pass", first.digest, first.counts)

	var setups, passSec, allocMB, latencies []float64
	var peakRSS, gcCPU, allCPU float64
	phases := map[string]float64{}
	for probes := 0; ; {
		elapsed := time.Since(start).Seconds()
		if probes < startupReps && elapsed >= cfg.seconds*float64(probes)/startupReps {
			cold := probes%(startupReps/coldProbes) == 1
			setupSec, coldSec, err := startup(w, cfg, cold)
			if err != nil {
				return nil, fmt.Errorf("start-up: %w", err)
			}
			setups = append(setups, setupSec)
			if cold {
				colds = append(colds, coldSec)
			}
			probes++
			continue
		}
		// Stop once the next timed pass and the counted pass would end
		// past the budget.
		if probes == startupReps && len(passSec) >= minPasses && elapsed+2*median(passSec) > cfg.seconds {
			break
		}
		before := readRuntime()
		t0 := time.Now()
		out, err := inst.pass(passOpts{})
		if err != nil {
			return nil, fmt.Errorf("timed pass: %w", err)
		}
		passSec = append(passSec, time.Since(t0).Seconds())
		after := readRuntime()
		allocMB = append(allocMB, (after.allocBytes-before.allocBytes)/1e6)
		gcCPU += after.gcCPU - before.gcCPU
		allCPU += after.totalCPU - before.totalCPU
		label := fmt.Sprintf("timed pass %d", len(passSec))
		rep.record(label, out)
		led.observe(rep, label, out.digest, out.counts)
		for k, v := range out.phases {
			phases[k] += v
		}
		latencies = append(latencies, out.latencies...)
		if len(passSec) == minPasses {
			// Peak memory over a fixed amount of work: a faster build
			// runs more passes in its budget, and vpserver's job table
			// grows with every request served.
			peakRSS = peakRSSMB()
		}
	}
	rep.passes = len(passSec)
	rep.addE2E("setup_s", "s", setups...)
	rep.addE2E("cold_pass_s", "s", colds...)
	rep.addE2E("pass_s", "s", passSec...)
	rep.addE2E("peak_rss_mb", "MB", peakRSS)

	// The counted pass runs in every run: the exact counters it collects
	// are correctness checks, pinned at seed offset 0.
	c, err := countedPass(rep, inst, led)
	if err != nil {
		return nil, err
	}
	addWorkloadFigures(rep, led, colds, passSec, latencies)
	if !cfg.trace {
		return nil, nil
	}

	sink, err := tracedPass(rep, inst, led, c)
	if err != nil {
		return nil, err
	}
	for _, n := range layerCounters {
		rep.addLayer(n, "count", float64(c.counters[n]))
	}
	rep.addLayer("metrics.registry_overhead", "ratio", c.sec/median(passSec)-1)
	total := 0.0
	for _, s := range passSec {
		total += s
	}
	for _, k := range sweepKinds {
		rep.addLayer("scenario.kind_share."+k, "share", phases[k]/total)
	}
	rep.addLayer("go.gc_cpu_fraction", "share", gcCPU/allCPU)
	rep.addLayer("go.alloc_mb_per_pass", "MB", allocMB...)
	return sink, nil
}

// counted is what the counted pass leaves for the traced one.
type counted struct {
	sec      float64           // the pass's host seconds
	counters map[string]uint64 // the registry's counters
	export   string            // digest of the registry's deterministic export
}

// countedPass runs a pass with a metrics.Registry attached and adds the
// registry's layer counters to the ledger.
func countedPass(rep *report, inst instance, led *ledger) (counted, error) {
	reg := metrics.NewRegistry()
	t0 := time.Now()
	out, err := inst.pass(passOpts{reg: reg})
	if err != nil {
		return counted{}, fmt.Errorf("counted pass: %w", err)
	}
	c := counted{sec: time.Since(t0).Seconds(), counters: reg.Snapshot().Counters}
	rep.record("counted pass", out)
	led.observe(rep, "counted pass", out.digest, out.counts)
	regCounts := map[string]uint64{}
	for _, n := range layerCounters {
		if v, ok := c.counters[n]; ok {
			regCounts[n] = v
		}
	}
	led.observe(rep, "counted pass registry", "", regCounts)
	c.export, err = registryDigest(reg)
	return c, err
}

// tracedPass runs a pass with a registry and a tracer feeding an
// in-memory span sink, checks it against the counted pass, and derives
// the per-layer metrics that come from its spans.
func tracedPass(rep *report, inst instance, led *ledger, c counted) (*spanSink, error) {
	sink := newSpanSink()
	tr := obs.New(sink)
	reg := metrics.NewRegistry()
	root := tr.Start("pass")
	t0 := time.Now()
	out, err := inst.pass(passOpts{reg: reg, trace: tr, root: root})
	sec := time.Since(t0).Seconds()
	root.End()
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	rep.check(tr.OpenSpans() == 0, "traced pass left %d spans open", tr.OpenSpans())
	if err := tr.Close(); err != nil {
		return nil, err
	}
	rep.record("traced pass", out)
	led.observe(rep, "traced pass", out.digest, out.counts)
	export, err := registryDigest(reg)
	if err != nil {
		return nil, err
	}
	rep.check(export == c.export, "traced pass metrics export %s differs from the counted pass's %s", export, c.export)

	st := sink.analyse()
	rep.spans = &st
	for _, ph := range []string{"setup", "kernel", "probe", "stats"} {
		rep.addLayer("attacks."+ph+"_share", "share", share(st.self[ph], st.wall))
	}
	rep.addLayer("runner.queue_wait_share", "share", share(st.queueWait, st.queueWait+st.trialBusy))
	rep.addLayer("obs.span_coverage", "share", share(st.covered, st.wall))
	rep.addLayer("obs.trace_overhead", "ratio", sec/c.sec-1)
	return sink, nil
}

// addWorkloadFigures adds the end-to-end figures that exist for only
// some workloads: simulation throughput where the passes count
// simulated cycles, and the cold and hot figures of vpserver-mixed.
func addWorkloadFigures(rep *report, led *ledger, colds, passSec, latencies []float64) {
	passMed := median(passSec)
	if c := led.counts["cpu.cycles"]; c > 0 {
		rep.addInfo("sim_mcycles_per_s", "Mcycles/s", float64(c)/passMed/1e6)
		rep.addInfo("sim_minstrs_per_s", "Minstr/s", float64(led.counts["cpu.commit.retired"])/passMed/1e6)
	}
	if len(latencies) == 0 {
		return
	}
	rep.addInfo("cold_makespan_s", "s", colds...)
	us := make([]float64, len(latencies))
	for i, v := range latencies {
		us[i] = v * 1e6
	}
	rep.addInfo("hot_p50_us", "us", us...)
	for _, p := range []float64{0.99, 0.999} {
		if v, err := percentile(us, p); err == nil {
			rep.addInfo(fmt.Sprintf("hot_p%g_us", 100*p), "us", v)
		}
	}
	rep.addInfo("hot_req_per_s", "1/s", float64(len(latencies))/float64(len(passSec))/passMed)
}
