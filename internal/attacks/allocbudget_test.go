// Steady-state allocation budget for the trial driver. Like
// internal/cpu's allocbudget_test.go, the counts are only meaningful
// without the race detector's instrumentation.

//go:build !race

package attacks

import (
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
// allocation behavior: at Jobs=1 with no Tracer and no Registry
// attached, every trial of a Train+Test case takes a trial state —
// machine, caches, predictor table — from the sync.Pool and hands it
// back, and the per-trial allocation count stays within the
// result-assembly budget.
func TestTrialDisabledPathAllocs(t *testing.T) {
	const runs = 10
	opt := Options{Predictor: LVP, Channel: core.TimingWindow,
		Runs: runs, Seed: 7, Jobs: 1}
	// Warm the trial pool and the kernel image caches.
	if _, err := Run(core.TrainTest, opt); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := Run(core.TrainTest, opt); err != nil {
			t.Fatal(err)
		}
	})
	perPair := avg / runs
	if perPair > trialAllocBudget {
		t.Errorf("trial pair allocates %.1f objects with tracing off, budget %d", perPair, trialAllocBudget)
	}
}
