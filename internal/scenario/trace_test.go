package scenario

import (
	"context"
	"strings"
	"sync"
	"testing"

	"vpsec/internal/core"
	"vpsec/internal/metrics"
	"vpsec/internal/obs"
)

// captureSink records the event stream.
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

// TestExecuteTraceSpans: a traced scenario emits the full span
// hierarchy — scenario root carrying the spec hash, runner map/trial
// spans beneath it, and the trial-phase spans (setup, kernel, probe,
// stats) from the attack harness. Every step a trial time-slices onto
// the core opens a kernel span, in the eviction-set and SMT forms too.
func TestExecuteTraceSpans(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  Spec
		probe bool
	}{
		// Persistent channel: the only Train+Test variant that exercises
		// every trial phase, including the reload probe.
		{"persistent", Spec{Kind: KindCase, Category: string(core.TrainTest), Channel: core.Persistent.String()}, true},
		{"eviction-train-test", Spec{Kind: KindEviction}, false},
		{"smt-train-test", Spec{Kind: KindSMT, Category: string(core.TrainTest)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &captureSink{}
			tr := obs.New(sink)
			spec := tc.spec
			spec.Runs, spec.Seed, spec.Jobs = small, 1, 4
			spec.Metrics, spec.Trace = metrics.NewRegistry(), tr
			if _, err := Execute(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
			if open := tr.OpenSpans(); open != 0 {
				t.Fatalf("%d spans still open after Execute", open)
			}

			sink.mu.Lock()
			defer sink.mu.Unlock()
			begins := map[string]int{}
			var scenarioID uint64
			var hash string
			var mapParents []uint64
			for _, e := range sink.events {
				if e.Ph != obs.PhaseBegin {
					continue
				}
				begins[e.Name]++
				switch e.Name {
				case "scenario":
					scenarioID = e.Span
					for _, a := range e.Attrs {
						if a.Key == "spec_sha256" {
							hash, _ = a.Val.(string)
						}
					}
				case "map":
					mapParents = append(mapParents, e.Parent)
				}
			}
			if begins["scenario"] != 1 {
				t.Fatalf("%d scenario spans, want 1", begins["scenario"])
			}
			if want := spec.Hash(); hash != want || len(hash) != 64 {
				t.Errorf("scenario span hash %q, want %q", hash, want)
			}
			for _, p := range mapParents {
				if p != scenarioID {
					t.Errorf("map span parent %d, want scenario id %d", p, scenarioID)
				}
			}
			// Each case runs one mapped and one unmapped sweep of `small`
			// trials; every trial opens each phase span at least once, and
			// a kernel span for each of its train, modify and trigger
			// steps.
			trials := 2 * small
			want := map[string]int{"trial": trials, "setup": trials, "kernel": 3 * trials, "stats": trials}
			if tc.probe {
				want["probe"] = trials
			}
			for phase, min := range want {
				if begins[phase] < min {
					t.Errorf("%d %s spans, want >= %d", begins[phase], phase, min)
				}
			}
		})
	}
}

// TestExecuteTraceExportsIdentical: attaching a tracer changes no
// deterministic artifact — the metrics export of a traced run is
// byte-identical to the untraced run at every worker count.
func TestExecuteTraceExportsIdentical(t *testing.T) {
	export := func(jobs int, traced bool) string {
		var tr *obs.Tracer
		if traced {
			tr = obs.New(&obs.CountingSink{})
		}
		reg := metrics.NewRegistry()
		spec := Spec{
			Kind: KindCase, Category: string(core.TestHit),
			Runs: small, Seed: 7, Jobs: jobs,
			Metrics: reg, Trace: tr,
		}
		if _, err := Execute(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		j, err := reg.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}
	want := export(1, false)
	if strings.Contains(want, metrics.RuntimeScope) {
		t.Fatalf("untraced export contains the runtime scope:\n%s", want)
	}
	for _, jobs := range []int{1, 4} {
		if got := export(jobs, true); got != want {
			t.Errorf("jobs=%d traced: metrics export differs from untraced baseline", jobs)
		}
	}
}

// TestSpecHashStable: the hash is a function of the spec content
// alone — infra fields (Metrics, Trace) do not participate.
func TestSpecHashStable(t *testing.T) {
	base := Spec{Kind: KindCase, Category: string(core.TrainTest), Runs: 5, Seed: 1}
	withInfra := base
	withInfra.Metrics = metrics.NewRegistry()
	withInfra.Trace = obs.New(&obs.CountingSink{})
	if base.Hash() != withInfra.Hash() {
		t.Error("infra fields changed the spec hash")
	}
	changed := base
	changed.Runs = 6
	if base.Hash() == changed.Hash() {
		t.Error("different specs hash equal")
	}
	if len(base.Hash()) != 64 {
		t.Errorf("hash %q is not a sha256 hex digest", base.Hash())
	}
}
