// Steady-state allocation budget for the cache-suite trial. Like
// internal/attacks' allocbudget_test.go, the counts are only
// meaningful without the race detector's instrumentation.

//go:build !race

package cachebench

import (
	"runtime"
	"runtime/debug"
	"testing"

	"vpsec/internal/isa"
)

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

// TestScheduleAllocs pins what deriving an arm's schedule allocates
// once the hierarchy pool is warm: under 1 KiB per arm, against the
// roughly 111 KB of line arrays a freshly built hierarchy costs. Every
// arm of the family is simulated once per cold pass, so a newSchedule
// that stops recycling its hierarchy shows here at once. The garbage
// collector is off while measuring, because a collection may empty the
// pool.
func TestScheduleAllocs(t *testing.T) {
	var progs []*isa.Program
	for _, k := range KnownAttacks() {
		for _, mapped := range []bool{false, true} {
			prog, err := k.Pattern.Compile(mapped)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, prog)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rounds = 10
	var before, after runtime.MemStats
	for r := 0; r <= rounds; r++ {
		if r == 1 { // round 0 warms the pool
			runtime.ReadMemStats(&before)
		}
		for _, prog := range progs {
			if _, err := newSchedule(prog); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	perArm := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(progs))
	if perArm >= 1024 {
		t.Errorf("newSchedule allocates %.0f B per arm, want < 1024", perArm)
	}
	t.Logf("newSchedule: %.0f B per arm", perArm)
}
