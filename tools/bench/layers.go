package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	rmetrics "runtime/metrics"
	"time"

	"vpsec/internal/asm"
	"vpsec/internal/cachebench"
	"vpsec/internal/mem"
	"vpsec/internal/metrics"
	"vpsec/internal/obs"
	"vpsec/internal/oracle"
	"vpsec/internal/predictor"
	"vpsec/internal/runner"
	"vpsec/internal/scenario"
	"vpsec/internal/server"
	"vpsec/internal/stats"
)

// The layer probes time each layer's public entry points from outside,
// on inputs derived from the run's seed offset but independent of the
// workload, so every workload's traced run reports every per-layer
// metric. Each probe repeats its measurement probeReps times and
// reports the samples; the result is their median.
const (
	probeReps = 5
	// probeRep is the shortest repetition timePer times: long enough
	// that timer resolution and brief preemptions wash out.
	probeRep = 25 * time.Millisecond
)

// probeSink keeps a probe result alive so the compiler cannot drop the
// measured calls.
var probeSink uint64

// timePer finds an item count n for which fn(n) takes at least
// probeRep, then runs fn(n) probeReps times and returns the time per
// item of each repetition in the given unit (seconds per unit).
func timePer(unit float64, fn func(n int)) []float64 {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if time.Since(t0) >= probeRep {
			break
		}
		n *= 2
	}
	out := make([]float64, probeReps)
	for r := range out {
		t0 := time.Now()
		fn(n)
		out[r] = time.Since(t0).Seconds() / float64(n) / unit
	}
	return out
}

const (
	nsec = 1e-9
	usec = 1e-6
)

func runProbes(cfg config, rep *report) error {
	stream, err := probeCPU(cfg, rep)
	if err != nil {
		return fmt.Errorf("cpu: %w", err)
	}
	if err := probePredictors(stream, rep); err != nil {
		return fmt.Errorf("predictor: %w", err)
	}
	probeMem(rep)
	if err := probeAttacks(cfg, rep); err != nil {
		return fmt.Errorf("attacks: %w", err)
	}
	if err := probeScenario(rep); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if err := probeRunner(rep); err != nil {
		return fmt.Errorf("runner: %w", err)
	}
	if err := probeCachebench(rep); err != nil {
		return fmt.Errorf("cachebench: %w", err)
	}
	if err := probeStats(cfg, rep); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if err := probeServer(cfg, rep); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// objSample is reused by heapObjects, so reading the count allocates
// nothing and the count around a call is the call's own.
var objSample = []rmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapObjects is the number of heap objects allocated so far.
func heapObjects() float64 {
	rmetrics.Read(objSample)
	return float64(objSample[0].Value.Uint64())
}

// probePrograms is the size of the cpu probe's progen corpus.
const probePrograms = 200

// training is one predictor update the pipeline made: the load's
// context and the value it actually loaded.
type training struct {
	ctx    predictor.Context
	actual uint64
}

// recorder is a forwarding predictor that logs every update.
type recorder struct {
	predictor.Predictor
	log *[]training
}

func (r recorder) Update(ctx predictor.Context, actual uint64, pred predictor.Prediction) {
	*r.log = append(*r.log, training{ctx, actual})
	r.Predictor.Update(ctx, actual, pred)
}

// probeCPU times machine construction (NewMachine+NewProcess) and
// Machine.Run over the probe corpus on every oracle configuration,
// counts the heap allocations Run makes, and returns the predictor
// training stream a recorded run of the corpus produced.
func probeCPU(cfg config, rep *report) ([]training, error) {
	progs := progenCorpus(cfg.seed, probePrograms)
	specs := oracle.Specs()
	var constructUS, perCycle, perInstr, allocs []float64
	for r := 0; r < 3; r++ {
		var construct, run time.Duration
		var cycles, retired, objs float64
		for _, p := range progs {
			for _, spec := range specs {
				t0 := time.Now()
				m, proc, err := newMachine(spec, p, nil)
				t1 := time.Now()
				if err != nil {
					return nil, err
				}
				before := heapObjects()
				t2 := time.Now()
				res, err := m.Run(proc)
				t3 := time.Now()
				objs += heapObjects() - before
				if err != nil {
					return nil, err
				}
				construct += t1.Sub(t0)
				run += t3.Sub(t2)
				cycles += float64(res.Cycles)
				retired += float64(res.Retired)
			}
		}
		n := float64(len(progs) * len(specs))
		constructUS = append(constructUS, construct.Seconds()/n/usec)
		perCycle = append(perCycle, run.Seconds()/cycles/nsec)
		perInstr = append(perInstr, run.Seconds()/retired/nsec)
		allocs = append(allocs, objs/retired)
	}
	rep.addLayer("cpu.construct_us", "us", constructUS...)
	rep.addLayer("cpu.run_ns_per_cycle", "ns", perCycle...)
	rep.addLayer("cpu.run_ns_per_instr", "ns", perInstr...)
	rep.addLayer("cpu.allocs_per_instr", "allocs/instr", allocs...)

	var stream []training
	wrap := func(p predictor.Predictor) predictor.Predictor { return recorder{p, &stream} }
	for _, p := range progs {
		for _, spec := range specs {
			m, proc, err := newMachine(spec, p, wrap)
			if err != nil {
				return nil, err
			}
			if _, err := m.Run(proc); err != nil {
				return nil, err
			}
		}
	}
	return stream, nil
}

// predictorKinds are the predictors the replay probe measures.
var predictorKinds = []string{"lvp", "vtage", "stride", "stride-2d", "fcm"}

// probePredictors replays the recorded training stream into a fresh
// predictor of each kind — Predict then Update per record — and then
// replays Predict alone on the trained tables. predict_ns is the
// Predict-only time per record; update_ns is the rest of the
// Predict+Update time.
func probePredictors(stream []training, rep *report) error {
	if len(stream) == 0 {
		return fmt.Errorf("the probe corpus made no predictor updates")
	}
	// Replay the stream enough times for ~500k operations per sample.
	loops := max(1, 500_000/len(stream))
	n := loops * len(stream)
	for _, kind := range predictorKinds {
		var predictNS, updateNS []float64
		for r := 0; r < probeReps; r++ {
			p, err := predictor.New(kind, predictor.FactoryConfig{})
			if err != nil {
				return err
			}
			t0 := time.Now()
			for l := 0; l < loops; l++ {
				for _, t := range stream {
					p.Update(t.ctx, t.actual, p.Predict(t.ctx))
				}
			}
			both := time.Since(t0).Seconds() / float64(n) / nsec
			t0 = time.Now()
			for l := 0; l < loops; l++ {
				for _, t := range stream {
					probeSink += p.Predict(t.ctx).Value
				}
			}
			pred := time.Since(t0).Seconds() / float64(n) / nsec
			predictNS = append(predictNS, pred)
			updateNS = append(updateNS, both-pred)
		}
		rep.addLayer("predictor."+kind+".predict_ns", "ns", predictNS...)
		rep.addLayer("predictor."+kind+".update_ns", "ns", updateNS...)
	}
	return nil
}

// probeMem times Hierarchy.Access on the default hierarchy over an
// L1-resident stream (64 lines, one per L1 set) and over cachebench's
// conflict layout: ConflictWays+1 lines 32 KiB apart, congruent in L1
// and L2, so under LRU every access misses both levels.
func probeMem(rep *report) {
	stream := func(addrs []uint64) []float64 {
		h := mem.DefaultHierarchy()
		for _, a := range addrs {
			h.Access(a, true)
		}
		return timePer(nsec, func(n int) {
			for i := 0; i < n; i++ {
				lat, _ := h.Access(addrs[i%len(addrs)], true)
				probeSink += lat
			}
		})
	}
	hit := make([]uint64, 64)
	for i := range hit {
		hit[i] = uint64(i) * 64
	}
	conflict := make([]uint64, cachebench.ConflictWays+1)
	for i := range conflict {
		conflict[i] = cachebench.BaseA + uint64(i)*cachebench.AliasStride
	}
	rep.addLayer("mem.access_ns.hit", "ns", stream(hit)...)
	rep.addLayer("mem.access_ns.conflict", "ns", stream(conflict)...)
}

// probeAttacks traces a short sequential attack case and reports the
// median trial span.
func probeAttacks(cfg config, rep *report) error {
	spec, ok := scenario.Lookup("train-test-timing-lvp")
	if !ok {
		return fmt.Errorf("train-test-timing-lvp is not registered")
	}
	spec.Seed += cfg.seed
	spec.Runs = 200
	spec.Jobs = 1
	sink := newSpanSink()
	spec.Trace = obs.New(sink)
	if _, err := scenario.Execute(context.Background(), spec); err != nil {
		return err
	}
	trials := sink.durations("trial")
	for i := range trials {
		trials[i] /= usec
	}
	rep.addLayer("attacks.trial_us_p50", "us", median(trials))
	return nil
}

// probeScenario times Spec.Hash (Canonical plus the canonical JSON
// digest) and Parse of the key-reordered inline spelling, over the
// sweep's specs.
func probeScenario(rep *report) error {
	specs, err := sweepSpecs(0, nil)
	if err != nil {
		return err
	}
	inline := make([][]byte, len(specs))
	for i, s := range specs {
		if inline[i], err = keyReordered(s); err != nil {
			return err
		}
	}
	rep.addLayer("scenario.canonical_hash_us", "us", timePer(usec, func(n int) {
		for i := 0; i < n; i++ {
			probeSink += uint64(len(specs[i%len(specs)].Hash()))
		}
	})...)
	var parseErr error
	rep.addLayer("scenario.parse_us", "us", timePer(usec, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := scenario.Parse(inline[i%len(inline)]); err != nil {
				parseErr = err
			}
		}
	})...)
	return parseErr
}

// probeRunner times runner.Map's per-item overhead with a no-op item.
func probeRunner(rep *report) error {
	for _, jobs := range []int{1, 2} {
		var mapErr error
		rep.addLayer(fmt.Sprintf("runner.map_ns_per_item.jobs%d", jobs), "ns", timePer(nsec, func(n int) {
			_, err := runner.Map(context.Background(), runner.Config{Jobs: jobs}, n,
				func(_ context.Context, i int, _ *metrics.Registry) (int, error) { return i, nil })
			if err != nil {
				mapErr = err
			}
		})...)
		if mapErr != nil {
			return mapErr
		}
	}
	return nil
}

// probeCachebench times Pattern.Trial over the published attacks and
// the assembly of benchmark programs (Pattern.Source through
// asm.Assemble, the work Pattern.Compile memoizes) over the family.
func probeCachebench(rep *report) error {
	known := cachebench.KnownAttacks()
	var trialErr error
	rep.addLayer("cachebench.trial_us", "us", timePer(usec, func(n int) {
		for i := 0; i < n; i++ {
			p := known[i%len(known)].Pattern
			c, err := p.Trial(i%2 == 0, int64(i), cachebench.DefaultNoise())
			if err != nil {
				trialErr = err
			}
			probeSink += c
		}
	})...)
	if trialErr != nil {
		return trialErr
	}
	family := cachebench.Family()
	var asmErr error
	rep.addLayer("cachebench.compile_us", "us", timePer(usec, func(n int) {
		for i := 0; i < n; i++ {
			p := family[(i/2)%len(family)]
			if _, err := asm.Assemble("probe.vasm", p.Source(i%2 == 0)); err != nil {
				asmErr = err
			}
		}
	})...)
	return asmErr
}

// probeStats times Welch's t-test and the Mann-Whitney U test on two
// 100-observation samples, the size of one cachebench case.
func probeStats(cfg config, rep *report) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	xs, ys := make([]float64, 100), make([]float64, 100)
	for i := range xs {
		xs[i] = 200 + float64(rng.Intn(13))
		ys[i] = 203 + float64(rng.Intn(13))
	}
	var testErr error
	rep.addLayer("stats.welch_ns", "ns", timePer(nsec, func(n int) {
		for i := 0; i < n; i++ {
			t, err := stats.WelchTTest(xs, ys)
			if err != nil {
				testErr = err
			}
			probeSink += uint64(t.DF)
		}
	})...)
	rep.addLayer("stats.mannwhitney_ns", "ns", timePer(nsec, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := stats.MannWhitneyU(xs, ys); err != nil {
				testErr = err
			}
		}
	})...)
	return testErr
}

// serverProbeSpecs are the registry scenarios the server probe caches:
// single attack cases, cheap to execute for priming.
var serverProbeSpecs = []string{
	"train-test-timing-lvp", "test-hit-timing-lvp", "train-test-persistent-novp", "fill-up-timing-vtage",
}

// probeServer primes a fresh server's store with a few executed
// results, then times a cache-hit submit through ServeHTTP into a
// recorder (no socket), a store Get, a result fetch, and the same
// submits over loopback from hotClients closed-loop clients.
func probeServer(cfg config, rep *report) error {
	var specs []scenario.Spec
	for _, name := range serverProbeSpecs {
		s, ok := scenario.Lookup(name)
		if !ok {
			return fmt.Errorf("%s is not registered", name)
		}
		specs = append(specs, s)
	}
	store := server.NewMemStore()
	for _, s := range specs {
		s.Jobs = 1
		res, err := scenario.Execute(context.Background(), s)
		if err != nil {
			return err
		}
		data, err := res.CanonicalJSON()
		if err != nil {
			return err
		}
		if err := store.Put(s.Hash(), data); err != nil {
			return err
		}
	}
	srv := server.New(server.Config{Workers: 2, TrialJobs: 1, Store: store, Metrics: metrics.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	bodies, hashes, err := hotMix(specs, 2000, cfg.seed)
	if err != nil {
		return err
	}

	var handler []float64
	var ids []string
	for k, body := range bodies {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		handler = append(handler, time.Since(t0).Seconds()/usec)
		h, err := parseJobHead(rec.Body.Bytes())
		if err != nil || rec.Code != http.StatusOK || h.Cache != server.CacheHit || h.SpecSHA256 != hashes[k] {
			return fmt.Errorf("probe submit %d: status %d, cache %q, %v", k, rec.Code, h.Cache, err)
		}
		if k < len(specs) {
			ids = append(ids, h.ID)
		}
	}
	handlerP50 := median(handler)
	rep.addLayer("server.handler_hit_us", "us", handlerP50)

	hash := specs[0].Hash()
	rep.addLayer("server.store_get_ns", "ns", timePer(nsec, func(n int) {
		for i := 0; i < n; i++ {
			data, _ := store.Get(hash)
			probeSink += uint64(len(data))
		}
	})...)

	var fetch []float64
	for k := 0; k < 2000; k++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+ids[k%len(ids)]+"/result", nil)
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		fetch = append(fetch, time.Since(t0).Seconds()/usec)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("probe result fetch: status %d", rec.Code)
		}
	}
	rep.addLayer("server.result_fetch_us", "us", median(fetch))

	ts := httptest.NewServer(srv)
	defer ts.Close()
	w := &vpserver{ts: ts, client: ts.Client(), hot: bodies, hotHash: hashes}
	out := w.hotPass(passOpts{})
	if out.failed > 0 {
		return fmt.Errorf("loopback probe: %s", out.failures[0])
	}
	lat := make([]float64, len(out.latencies))
	for i, v := range out.latencies {
		lat[i] = v / usec
	}
	p99, err := percentile(lat, 0.99)
	if err != nil {
		return err
	}
	rep.addLayer("server.hot_p50_us", "us", median(lat))
	rep.addLayer("server.hot_p99_us", "us", p99)
	rep.addLayer("server.loopback_us", "us", median(lat)-handlerP50)
	return nil
}
