// Steady-state allocation budget for the cache-suite trial. Like
// internal/attacks' allocbudget_test.go, the counts are only
// meaningful without the race detector's instrumentation.

//go:build !race

package cachebench

import "testing"

// TestTrialAllocs pins the cache-suite trial's steady state: once the
// arm's memo entry (program and schedule) and the generator pool are
// warm, Pattern.Trial makes no heap allocation on either arm of any
// published attack. A trial only looks up the schedule, re-seeds a
// pooled jitter generator and replays the draws, so an allocation on
// the lookup, the reseed or the replay shows here at once.
func TestTrialAllocs(t *testing.T) {
	noise := DefaultNoise()
	for _, k := range KnownAttacks() {
		for _, mapped := range []bool{false, true} {
			// Warm the generator pool and the arm's memo entry.
			if _, err := k.Pattern.Trial(mapped, 1, noise); err != nil {
				t.Fatal(err)
			}
			seed := int64(1)
			avg := testing.AllocsPerRun(50, func() {
				seed++
				if _, err := k.Pattern.Trial(mapped, seed, noise); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("%s (%s, mapped=%v): trial allocates %.2f objects, want 0",
					k.Name, k.Pattern, mapped, avg)
			}
		}
	}
}
