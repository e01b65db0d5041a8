package defense

import (
	"context"
	"testing"

	"vpsec/internal/attacks"
	"vpsec/internal/core"
)

func baseOpt() attacks.Options {
	return attacks.Options{Channel: core.TimingWindow, Runs: 40, Seed: 77}
}

func TestSweepTrainTestMinimalWindowIs3(t *testing.T) {
	pts, err := SweepRWindow(context.Background(), core.TrainTest, 6, baseOpt())
	if err != nil {
		t.Fatal(err)
	}
	if got := MinimalSecureWindow(pts); got != 3 {
		for _, p := range pts {
			t.Logf("window %d: p=%.4f", p.Window, p.P)
		}
		t.Errorf("Train+Test minimal secure window = %d, want 3 (Sec. VI-B)", got)
	}
}

func TestSweepTestHitMinimalWindowIs9(t *testing.T) {
	pts, err := SweepRWindow(context.Background(), core.TestHit, 10, baseOpt())
	if err != nil {
		t.Fatal(err)
	}
	if got := MinimalSecureWindow(pts); got != 9 {
		for _, p := range pts {
			t.Logf("window %d: p=%.4f", p.Window, p.P)
		}
		t.Errorf("Test+Hit minimal secure window = %d, want 9 (Sec. VI-B)", got)
	}
}

func TestMinimalSecureWindowEdgeCases(t *testing.T) {
	if MinimalSecureWindow(nil) != 0 {
		t.Error("empty sweep should report 0")
	}
	pts := []SweepPoint{{1, 0.001, 1}, {2, 0.3, 0.5}, {3, 0.01, 0.7}, {4, 0.5, 0.5}, {5, 0.6, 0.5}}
	if got := MinimalSecureWindow(pts); got != 4 {
		t.Errorf("minimal window = %d, want 4 (window 2 is a fluke, 3 is effective)", got)
	}
	allBad := []SweepPoint{{1, 0.001, 1}, {2, 0.001, 1}}
	if MinimalSecureWindow(allBad) != 0 {
		t.Error("never-secure sweep should report 0")
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := SweepRWindow(context.Background(), core.TrainTest, 0, baseOpt()); err == nil {
		t.Error("maxWindow 0 should fail")
	}
}

func TestMatrixCombinedDefendsEverything(t *testing.T) {
	opt := baseOpt()
	opt.Runs = 30
	cells, err := Matrix(context.Background(), opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Undefended baseline must be effective everywhere.
	for _, c := range cells {
		if c.Strategy == "none" && c.Defended {
			t.Errorf("%v/%v undefended but not effective (p=%.4f)", c.Category, c.Channel, c.P)
		}
	}
	if !AllDefended(cells, "A+R(9)+D") {
		for _, c := range cells {
			if c.Strategy == "A+R(9)+D" && !c.Defended {
				t.Logf("leaks: %v/%v p=%.4f", c.Category, c.Channel, c.P)
			}
		}
		t.Error("combined A+R+D does not defend all attacks (Sec. VI-B claim)")
	}
	if AllDefended(cells, "no-such-strategy") {
		t.Error("unknown strategy should not report defended")
	}
}

func TestMatrixSelectedClaims(t *testing.T) {
	// A focused subset of Sec. VI-B statements on a 9-cell matrix.
	strategies := []Strategy{
		{"R(3)", attacks.Stack(attacks.RandomWindow(3))},
		{"A-fixed", attacks.Stack(attacks.AlwaysPredict(true))},
		{"D", attacks.Stack(attacks.DelayEffects())},
	}
	opt := baseOpt()
	opt.Runs = 40
	cells, err := Matrix(context.Background(), opt, strategies)
	if err != nil {
		t.Fatal(err)
	}
	find := func(cat core.Category, ch core.Channel, s string) MatrixCell {
		for _, c := range cells {
			if c.Category == cat && c.Channel == ch && c.Strategy == s {
				return c
			}
		}
		t.Fatalf("cell %v/%v/%s missing", cat, ch, s)
		return MatrixCell{}
	}
	tw, pers := core.TimingWindow, core.Persistent
	if !find(core.TrainTest, tw, "R(3)").Defended {
		t.Error("R(3) should defend Train+Test (timing-window)")
	}
	if find(core.TestHit, tw, "R(3)").Defended {
		t.Error("R(3) should NOT defend Test+Hit (needs window 9)")
	}
	if !find(core.SpillOver, tw, "A-fixed").Defended {
		t.Error("A-type should defend Spill Over directly")
	}
	if !find(core.TrainTest, pers, "D").Defended {
		t.Error("D-type should defend Train+Test's persistent variant")
	}
	if find(core.TrainTest, tw, "D").Defended {
		t.Error("D-type should NOT defend timing-window variants")
	}
}

func TestMatrixFlushOnSwitchScope(t *testing.T) {
	// The OS-level flush-on-context-switch strategy defends exactly the
	// cross-process cells: the trained entry is gone before the other
	// process triggers, but internal-interference attacks never cross a
	// switch.
	strategies := []Strategy{
		{"flush", attacks.Stack(attacks.FlushVPS())},
	}
	opt := baseOpt()
	opt.Runs = 40
	cells, err := Matrix(context.Background(), opt, strategies)
	if err != nil {
		t.Fatal(err)
	}
	crossProcess := map[core.Category]bool{
		core.TrainTest: true, core.TestHit: true, core.ModifyTest: true,
	}
	for _, c := range cells {
		if want := crossProcess[c.Category]; c.Defended != want {
			t.Errorf("flush-on-switch %v/%v: defended=%v, want %v (p=%.4f)",
				c.Category, c.Channel, c.Defended, want, c.P)
		}
	}
}
