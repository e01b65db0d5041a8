// Steady-state allocation budget for the trial driver. Like
// internal/cpu's allocbudget_test.go, the counts are only meaningful
// without the race detector's instrumentation.

//go:build !race

package attacks

import (
	"context"
	"testing"

	"vpsec/internal/core"
)

// trialAllocBudget bounds the average heap allocations one mapped +
// unmapped trial pair may make through runCaseTrials once the trial
// pool is warm, with tracing and metrics off — the disabled-
// observability path the wall-clock numbers rest on. Each pair
// simulates tens of thousands of instructions and hundreds of cache
// misses; the budget only covers the per-case result assembly
// (observation slices, trajectory, stats), so any per-instruction or
// per-miss allocation sneaking back into the pipeline, the hierarchy
// or the RNG reseed blows through it immediately.
const trialAllocBudget = 64

// TestTrialDisabledPathAllocs pins the trial driver's steady-state
// allocation behavior for one case of every family the executor runs:
// at Jobs=1 with no Tracer and no Registry attached, every trial takes
// a trial state — machine, caches, predictor table — from the
// sync.Pool and hands it back, runs its entry's steps without building
// anything per trial, and the per-pair allocation count stays within
// the result-assembly budget.
func TestTrialDisabledPathAllocs(t *testing.T) {
	const runs = 10
	ctx := context.Background()
	onChannel := func(cat core.Category, ch core.Channel) func(Options) (CaseResult, error) {
		return func(o Options) (CaseResult, error) {
			o.Channel = ch
			return Run(ctx, cat, o)
		}
	}
	row, err := FindVariant("R^KI, S^SI', R^KI")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(Options) (CaseResult, error)
	}{
		{"train-test/timing-window", onChannel(core.TrainTest, core.TimingWindow)},
		{"train-test/persistent", onChannel(core.TrainTest, core.Persistent)},
		{"test-hit/volatile", onChannel(core.TestHit, core.Volatile)},
		{"smt/test-hit", func(o Options) (CaseResult, error) { return RunVolatileSMT(ctx, core.TestHit, o) }},
		{"eviction", func(o Options) (CaseResult, error) { return RunTrainTestEviction(ctx, o) }},
		{"variant", func(o Options) (CaseResult, error) { return RunVariant(ctx, row, o) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{Predictor: LVP, Runs: runs, Seed: 7, Jobs: 1}
			// Warm the trial pool and the kernel image caches.
			if _, err := tc.run(opt); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(5, func() {
				if _, err := tc.run(opt); err != nil {
					t.Fatal(err)
				}
			})
			perPair := avg / runs
			t.Logf("%.1f allocations per trial pair", perPair)
			if perPair > trialAllocBudget {
				t.Errorf("trial pair allocates %.1f objects with tracing off, budget %d", perPair, trialAllocBudget)
			}
		})
	}
}
