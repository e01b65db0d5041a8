package attacks

import (
	"context"
	"encoding/json"
	"slices"
	"testing"

	"vpsec/internal/core"
)

// TestFlushOnEveryStep: flush-on-switch fires on every time-sliced
// step, including the eviction-set kernels and the SMT trigger. The
// eviction Train+Test crosses a process boundary before the modify and
// before the trigger, so a flushed VPS leaves the trigger nothing to
// tell the cases apart: it must not separate at seeds 1–5. The SMT
// Test+Hit trigger takes the core from the training sender, so the
// flush must reach what the sampler observes.
func TestFlushOnEveryStep(t *testing.T) {
	flush := Stack(FlushVPS())
	for seed := int64(1); seed <= 5; seed++ {
		r, err := RunTrainTestEviction(context.Background(), Options{Defense: flush, Runs: 100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if r.P < 0.05 {
			t.Errorf("eviction Train+Test under flush, seed %d: p=%.3g, want >= 0.05", seed, r.P)
		}
	}

	undefended, err := RunVolatileSMT(context.Background(), core.TestHit, Options{Runs: 30, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	flushed, err := RunVolatileSMT(context.Background(), core.TestHit, Options{Defense: flush, Runs: 30, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(flushed.Mapped, undefended.Mapped) {
		t.Error("SMT Test+Hit under flush: mapped observations equal the undefended run; the trigger switched no context")
	}
}

// TestStackDecodesWithoutDefense: the JSON codec of a defense stack
// needs nothing beyond this package — neither a DefenseStack nor the
// Options carrying one depends on internal/defense being linked in.
func TestStackDecodesWithoutDefense(t *testing.T) {
	var st DefenseStack
	if err := json.Unmarshal([]byte(`"A+R(5)+recompute"`), &st); err != nil {
		t.Fatal(err)
	}
	if got := st.String(); got != "A+R(5)+recompute" {
		t.Errorf("decoded stack %q", got)
	}
	var opt Options
	if err := json.Unmarshal([]byte(`{"Defense":"D"}`), &opt); err != nil {
		t.Fatal(err)
	}
	if got := opt.Defense.String(); got != "D" {
		t.Errorf("decoded Options.Defense %q", got)
	}
}

func TestParseStackErrors(t *testing.T) {
	for _, bad := range []string{
		"B",           // unknown mechanism
		"R",           // missing argument
		"A(3)",        // argument on an argument-less mechanism
		"R(x)",        // malformed argument
		"R(3",         // unbalanced parens
		"D+D",         // duplicate mechanism
		"D+recompute", // conflicting effects policies
		"R(-2)",       // negative window
	} {
		if _, err := ParseStack(bad); err == nil {
			t.Errorf("ParseStack(%q) should fail", bad)
		}
	}
	if st, err := ParseStack("none"); err != nil || st != nil {
		t.Errorf("ParseStack(none) = %v, %v; want empty stack", st, err)
	}
}
