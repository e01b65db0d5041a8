package attacks

import (
	"context"
	"testing"

	"vpsec/internal/core"
)

// TestAllTwelveVariantsExecutable runs every row of Table II end to
// end: with the LVP each pattern leaks (p < 0.05 and a near-perfect
// threshold classifier); without a predictor none does.
func TestAllTwelveVariantsExecutable(t *testing.T) {
	variants := core.Reduce()
	if len(variants) != 12 {
		t.Fatalf("expected 12 variants, got %d", len(variants))
	}
	for _, v := range variants {
		opt := Options{Predictor: LVP, Runs: 15, Seed: 333}
		r, err := RunVariant(context.Background(), v, opt)
		if err != nil {
			t.Fatalf("%s: %v", v.Pattern, err)
		}
		if !r.Effective() {
			t.Errorf("%s (%s): p=%.4f with LVP, want effective", v.Pattern, v.Category, r.P)
		}
		if r.SuccessRate < 0.9 {
			t.Errorf("%s: success %.2f, want >= 0.9", v.Pattern, r.SuccessRate)
		}
	}
	// Controls: a representative row per category without a predictor.
	seen := map[core.Category]bool{}
	for _, v := range variants {
		if seen[v.Category] {
			continue
		}
		seen[v.Category] = true
		opt := Options{Predictor: NoVP, Runs: 15, Seed: 333}
		r, err := RunVariant(context.Background(), v, opt)
		if err != nil {
			t.Fatalf("%s: %v", v.Pattern, err)
		}
		if r.Effective() {
			t.Errorf("%s: p=%.4f without a predictor, want ineffective", v.Pattern, r.P)
		}
	}
}

func TestFindVariant(t *testing.T) {
	v, err := FindVariant("R^KI, S^SI', R^KI")
	if err != nil {
		t.Fatal(err)
	}
	if v.Category != core.TrainTest {
		t.Errorf("category = %v", v.Category)
	}
	if _, err := FindVariant("bogus"); err == nil {
		t.Error("unknown pattern should fail")
	}
}
