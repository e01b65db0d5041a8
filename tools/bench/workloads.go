package main

import (
	"encoding/hex"
	"fmt"
	"hash"

	"vpsec/internal/metrics"
	"vpsec/internal/obs"
	"vpsec/internal/scenario"
)

// sizes are the workload input sizes. The zero value is the benchmark's
// full configuration; the fast tests shrink every field.
type sizes struct {
	specs       []string // sweep and vpserver registry names; nil means the 68 sweep specs
	cases       int      // cachebench cases; 0 means the 976-case family
	hotRequests int      // vpserver requests per hot pass; 0 means 20,000
}

// config is one benchmark run's settings.
type config struct {
	seed    int64   // offset added to every input seed (see each workload)
	seconds float64 // time budget for the timed passes
	trace   bool    // run the traced pass and the layer probes
	size    sizes

	// inProcess runs the start-up measurements and the layer probes in
	// this process instead of child processes (the fast tests).
	inProcess bool
}

// full reports whether the run uses the benchmark's full inputs, the
// configuration the pinned correctness values were recorded at.
func (c config) full() bool {
	return c.size.specs == nil && c.size.cases == 0 && c.size.hotRequests == 0
}

// passOpts selects the variant of a pass: plain (both nil), counted
// (reg set) or traced (reg and trace set, with root the benchmark's span
// around the pass).
type passOpts struct {
	reg   *metrics.Registry
	trace *obs.Tracer
	root  obs.Span
}

// passOut is what one pass reports back to run.
type passOut struct {
	attempted, failed int
	failures          []string // one line per failed operation

	// digest identifies the pass's outputs; passes over the same inputs
	// must agree. Empty when the pass has no output identity.
	digest string
	// counts are exact work counters; every pass that reports a count
	// must report the same value.
	counts map[string]uint64
	// phases are host seconds per named phase, for the per-layer shares.
	phases map[string]float64
	// latencies are per-operation host seconds (vpserver hot requests).
	latencies []float64
}

func (o *passOut) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// instance is a set-up workload: its inputs and the system under test.
type instance interface {
	pass(o passOpts) (passOut, error)
	close()
}

// workload is one named benchmark input; BENCHMARK.json says why each
// was chosen.
type workload struct {
	name  string
	setup func(cfg config) (instance, error)
}

// workloads lists the benchmark's workloads in run order.
var workloads = []workload{
	{"registry-sweep", setupSweep},
	{"cachebench-full", setupMatrix},
	{"vpserver-mixed", setupServer},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sweepSpecs returns the registry sweep: every registered scenario but
// the cachebench families (68 specs), in registry order, at Jobs=1,
// with the seed offset added to each spec's seed. names, when set,
// restricts the sweep to those scenarios.
func sweepSpecs(offset int64, names []string) ([]scenario.Spec, error) {
	var out []scenario.Spec
	if names != nil {
		for _, n := range names {
			s, ok := scenario.Lookup(n)
			if !ok {
				return nil, fmt.Errorf("unknown scenario %q", n)
			}
			out = append(out, s)
		}
	} else {
		for _, s := range scenario.All() {
			if s.Kind != scenario.KindCacheBench && s.Kind != scenario.KindCacheMatrix {
				out = append(out, s)
			}
		}
	}
	for i := range out {
		out[i].Seed += offset
		out[i].Jobs = 1
		if err := out[i].Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", out[i].Name, err)
		}
	}
	return out, nil
}

// hexSum is the hex digest of everything written to h.
func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
