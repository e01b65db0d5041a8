// Steady-state allocation budget for the cache-suite trial. Like
// internal/attacks' allocbudget_test.go, the counts are only
// meaningful without the race detector's instrumentation.

//go:build !race

package cachebench

import "testing"

// TestTrialAllocs pins the cache-suite trial's steady state: once the
// trial pool and the compiled programs are warm, Pattern.Trial makes
// no heap allocation on either arm of any published attack. The
// hierarchy, the interpreter and the jitter generator are pooled and
// re-armed in place, so an allocation on the reseed, the interpreter
// reset or the hierarchy reset shows here at once.
func TestTrialAllocs(t *testing.T) {
	noise := DefaultNoise()
	for _, k := range KnownAttacks() {
		for _, mapped := range []bool{false, true} {
			// Warm the pool and the compiled-program memo.
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
