package attacks

import (
	"context"
	"testing"

	"vpsec/internal/core"
	"vpsec/internal/stats"
)

// testOpt returns fast-but-stable options for CI: 25 runs per case is
// plenty at our signal-to-noise ratio (the paper used 100). Jobs is
// left 0, so trials fan out over runtime.NumCPU() runner workers —
// byte-identical to a sequential run (TestRunJobsDeterminism checks
// exactly that) but faster on multi-core CI.
func testOpt(ch core.Channel, pk PredictorKind) Options {
	return Options{Predictor: pk, Channel: ch, Runs: 25, Seed: 1234}
}

func runCase(t *testing.T, cat core.Category, opt Options) CaseResult {
	t.Helper()
	r, err := Run(cat, opt)
	if err != nil {
		t.Fatalf("%v/%v/%v: %v", cat, opt.Channel, opt.Predictor, err)
	}
	return r
}

// TestTableIIIShape is the headline reproduction check: for every
// category and supported channel, the attack is ineffective without a
// value predictor and effective with the LVP — the red/black p-value
// pattern of Table III.
func TestTableIIIShape(t *testing.T) {
	for _, cat := range core.Categories() {
		for _, ch := range []core.Channel{core.TimingWindow, core.Persistent} {
			if !supportsChannel(cat, ch) {
				continue
			}
			noVP := runCase(t, cat, testOpt(ch, NoVP))
			if noVP.Effective() {
				t.Errorf("%v/%v: attack effective WITHOUT a predictor (p=%.4f)", cat, ch, noVP.P)
			}
			vp := runCase(t, cat, testOpt(ch, LVP))
			if !vp.Effective() {
				t.Errorf("%v/%v: attack not effective with LVP (p=%.4f)", cat, ch, vp.P)
			}
			if vp.SuccessRate < 0.9 {
				t.Errorf("%v/%v: success rate %.2f with LVP, want >= 0.9", cat, ch, vp.SuccessRate)
			}
			// Transmission rates land in the paper's few-Kbps band.
			if vp.RateBps < 1e3 || vp.RateBps > 100e3 {
				t.Errorf("%v/%v: rate %.0f bps outside the plausible band", cat, ch, vp.RateBps)
			}
		}
	}
}

// TestTimingOrdering checks the three-way contrast the taxonomy is
// built on: correct prediction < no prediction < misprediction.
func TestTimingOrdering(t *testing.T) {
	// Train+Test mapped = misprediction, unmapped = correct prediction.
	tt := runCase(t, core.TrainTest, testOpt(core.TimingWindow, LVP))
	wrong := stats.Summarize(tt.Mapped).Mean
	correct := stats.Summarize(tt.Unmapped).Mean
	// Spill Over unmapped = no prediction.
	so := runCase(t, core.SpillOver, testOpt(core.TimingWindow, LVP))
	none := stats.Summarize(so.Unmapped).Mean
	if !(correct < none && none < wrong) {
		t.Errorf("timing ordering broken: correct=%.0f none=%.0f wrong=%.0f", correct, none, wrong)
	}
	// The correct-prediction case overlaps the dependent miss with the
	// trigger miss: roughly half the serialized no-prediction latency.
	if correct*1.5 > none {
		t.Errorf("correct prediction (%.0f) not much faster than none (%.0f)", correct, none)
	}
}

// TestPredictorTypeInfluence reproduces Sec. IV-D3: LVP vs VTAGE (and
// the oracle variants) all leak.
func TestPredictorTypeInfluence(t *testing.T) {
	for _, pk := range []PredictorKind{LVP, VTAGE, OracleLVP, OracleVTAGE} {
		for _, cat := range []core.Category{core.TrainTest, core.TestHit} {
			r := runCase(t, cat, testOpt(core.TimingWindow, pk))
			if !r.Effective() {
				t.Errorf("%v with %v: p=%.4f, want effective", cat, pk, r.P)
			}
		}
	}
}

// TestDefenseClaims reproduces the Sec. VI-B evaluation:
//
//   - Train+Test is prevented by R-type with window 3 (the paper's
//     minimal secure window) but not window 2;
//   - Test+Hit needs window 9, or window 5 combined with A-type;
//   - Spill Over is prevented by the A-type defense directly;
//   - Train+Hit is prevented by combining A-type and R-type;
//   - Fill Up and Modify+Test are prevented by R-type.
func TestDefenseClaims(t *testing.T) {
	check := func(cat core.Category, ch core.Channel, d DefenseStack, wantSecure bool, label string) {
		t.Helper()
		opt := testOpt(ch, LVP)
		opt.Runs = 60
		opt.Defense = d
		r := runCase(t, cat, opt)
		if wantSecure && r.Effective() {
			t.Errorf("%s: attack still effective (p=%.4f)", label, r.P)
		}
		if !wantSecure && !r.Effective() {
			t.Errorf("%s: attack unexpectedly defended (p=%.4f)", label, r.P)
		}
	}

	tw := core.TimingWindow
	check(core.TrainTest, tw, Stack(RandomWindow(2)), false, "Train+Test R(2)")
	check(core.TrainTest, tw, Stack(RandomWindow(3)), true, "Train+Test R(3)")
	check(core.TestHit, tw, Stack(RandomWindow(5)), false, "Test+Hit R(5)")
	check(core.TestHit, tw, Stack(RandomWindow(9)), true, "Test+Hit R(9)")
	check(core.TestHit, tw, Stack(AlwaysPredict(true), RandomWindow(5)), true, "Test+Hit A+R(5)")
	check(core.SpillOver, tw, Stack(AlwaysPredict(true)), true, "Spill Over A(fixed)")
	check(core.SpillOver, tw, Stack(AlwaysPredict(false), RandomWindow(3)), true, "Spill Over A(hist)+R(3)")
	check(core.TrainHit, tw, Stack(AlwaysPredict(false), RandomWindow(3)), true, "Train+Hit A+R(3)")
	check(core.FillUp, tw, Stack(RandomWindow(3)), true, "Fill Up R(3)")
	check(core.ModifyTest, tw, Stack(RandomWindow(3)), true, "Modify+Test R(3)")
}

// TestDTypeDefendsPersistentOnly reproduces the D-type scoping: it
// stops persistent-channel variants but not timing-window ones.
func TestDTypeDefendsPersistentOnly(t *testing.T) {
	for _, cat := range []core.Category{core.TrainTest, core.TestHit, core.FillUp} {
		opt := testOpt(core.Persistent, LVP)
		opt.Defense = Stack(DelayEffects())
		r := runCase(t, cat, opt)
		if r.Effective() {
			t.Errorf("%v persistent with D-type: p=%.4f, want defended", cat, r.P)
		}
		opt = testOpt(core.TimingWindow, LVP)
		opt.Defense = Stack(DelayEffects())
		r = runCase(t, cat, opt)
		if !r.Effective() {
			t.Errorf("%v timing-window with D-type: p=%.4f, D-type should not stop it", cat, r.P)
		}
	}
}

func TestUnsupportedChannelErrors(t *testing.T) {
	if _, err := Run(core.SpillOver, testOpt(core.Persistent, LVP)); err == nil {
		t.Error("Spill Over has no persistent variant; want error")
	}
	if _, err := Run(core.TrainHit, testOpt(core.Volatile, LVP)); err == nil {
		t.Error("volatile variant not implemented; want error")
	}
	if _, err := Run(core.Category("bogus"), testOpt(core.TimingWindow, LVP)); err == nil {
		t.Error("unknown category; want error")
	}
	opt := testOpt(core.TimingWindow, PredictorKind("quantum"))
	if _, err := Run(core.TrainTest, opt); err == nil {
		t.Error("unknown predictor; want error")
	}
}

func TestHistograms(t *testing.T) {
	r := runCase(t, core.TrainTest, testOpt(core.TimingWindow, LVP))
	hm, hu, err := r.Histograms(20)
	if err != nil {
		t.Fatal(err)
	}
	if hm.Total != len(r.Mapped) || hu.Total != len(r.Unmapped) {
		t.Error("histogram totals do not match observations")
	}
	if _, _, err := r.Histograms(0); err != nil {
		t.Errorf("default bin width failed: %v", err)
	}
}

func TestSuccessRate(t *testing.T) {
	if got := successRate([]float64{10, 11}, []float64{20, 21}); got != 1 {
		t.Errorf("separable success = %v, want 1", got)
	}
	if got := successRate([]float64{10, 20}, []float64{10, 20}); got != 0.5 {
		t.Errorf("identical success = %v, want 0.5", got)
	}
	if got := successRate(nil, []float64{1}); got != 0 {
		t.Errorf("empty success = %v, want 0", got)
	}
}

func TestTableIIIFull(t *testing.T) {
	opt := Options{Runs: 15, Seed: 5}
	rows, err := TableIII(context.Background(), LVP, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("Table III rows = %d, want 6", len(rows))
	}
	persistent := 0
	for _, row := range rows {
		if row.TWVP.P >= 0.05 {
			t.Errorf("%v: TW VP p=%.4f, want effective", row.Category, row.TWVP.P)
		}
		if row.TWNoVP.P < 0.05 {
			t.Errorf("%v: TW no-VP p=%.4f, want ineffective", row.Category, row.TWNoVP.P)
		}
		if row.HasPersistent {
			persistent++
			if row.PersVP.P >= 0.05 {
				t.Errorf("%v: persistent VP p=%.4f, want effective", row.Category, row.PersVP.P)
			}
		}
	}
	if persistent != 3 {
		t.Errorf("persistent rows = %d, want 3 (Train+Test, Test+Hit, Fill Up)", persistent)
	}
}

// TestKernelAlignment guards the cross-process index collision: every
// kernel variant places the attacked load at the same PC, and the
// skewed variant displaces it by exactly pcSkew.
func TestKernelAlignment(t *testing.T) {
	base, err := buildKernel(kernelParams{name: "a", target: knownAddr, iters: 1, results: resultsB})
	if err != nil {
		t.Fatal(err)
	}
	other, err := buildKernel(kernelParams{
		name: "b", target: secretAddr, value: 7, setValue: true, iters: 9,
		flush: true, depBase: probeBase, flushDep: true, results: resultsA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Code) != len(other.Code) {
		t.Errorf("kernel shapes differ: %d vs %d instructions", len(base.Code), len(other.Code))
	}
	skewed, err := buildKernel(kernelParams{name: "c", target: knownAddr, iters: 1, results: resultsB, skew: pcSkew})
	if err != nil {
		t.Fatal(err)
	}
	if skewed.Code[attackLoadPC+pcSkew].Op != base.Code[attackLoadPC].Op {
		t.Error("skewed kernel does not displace the attacked load by pcSkew")
	}
}

func TestDefenseStackBasics(t *testing.T) {
	if (DefenseStack{}).Active() || DefenseStack(nil).Active() {
		t.Error("empty stack should be inactive")
	}
	if got := DefenseStack(nil).String(); got != "none" {
		t.Errorf("empty stack String() = %q, want none", got)
	}
	for _, d := range []DefenseStack{
		Stack(AlwaysPredict(false)),
		Stack(RandomWindow(2)),
		Stack(DelayEffects()),
		Stack(Recompute()),
		Stack(IsolateContexts()),
	} {
		if !d.Active() {
			t.Errorf("%s should be active", d)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d, err)
		}
	}
	if got := Stack(AlwaysPredict(true), RandomWindow(5), DelayEffects()).String(); got != "A-fixed+R(5)+D" {
		t.Errorf("stack String() = %q, want A-fixed+R(5)+D", got)
	}
	// Stack-level conflicts: duplicate mechanisms, two effects policies.
	if err := Stack(DelayEffects(), DelayEffects()).Validate(); err == nil {
		t.Error("duplicate mechanism should fail validation")
	}
	if err := Stack(DelayEffects(), Recompute()).Validate(); err == nil {
		t.Error("two effects policies should fail validation")
	}
}

// TestVolatileChannel covers the third channel type of Sec. V: the
// secret trained into the predictor is encoded into issue-port
// contention during the transient window (SMoTherSpectre-style) for
// the three categories that train the predictor on the secret.
func TestVolatileChannel(t *testing.T) {
	for _, cat := range []core.Category{core.TrainTest, core.TestHit, core.FillUp} {
		noVP := runCase(t, cat, testOpt(core.Volatile, NoVP))
		if noVP.Effective() {
			t.Errorf("%v/volatile: effective without a predictor (p=%.4f)", cat, noVP.P)
		}
		vp := runCase(t, cat, testOpt(core.Volatile, LVP))
		if !vp.Effective() {
			t.Errorf("%v/volatile: not effective with LVP (p=%.4f)", cat, vp.P)
		}
	}
}

// TestVolatileDefenseScope: R-type and A-type randomize/flatten the
// predicted value, killing the parity gate; D-type only delays cache
// fills and must NOT stop the volatile channel.
func TestVolatileDefenseScope(t *testing.T) {
	check := func(d DefenseStack, wantSecure bool, label string) {
		t.Helper()
		opt := testOpt(core.Volatile, LVP)
		opt.Runs = 40
		opt.Defense = d
		r := runCase(t, core.TestHit, opt)
		if wantSecure && r.Effective() {
			t.Errorf("%s: volatile attack still effective (p=%.4f)", label, r.P)
		}
		if !wantSecure && !r.Effective() {
			t.Errorf("%s: volatile attack unexpectedly stopped (p=%.4f)", label, r.P)
		}
	}
	check(Stack(RandomWindow(2)), true, "R(2)")
	check(Stack(AlwaysPredict(true)), true, "A-fixed")
	check(Stack(DelayEffects()), false, "D-type")
}

// TestMannWhitneyCrossCheck: the nonparametric test reaches the same
// attack decision as the paper's t-test on every strongly-separated
// cell (timing distributions are bimodal, so this is the sanity check
// that the t-test decisions are not a normality artifact).
func TestMannWhitneyCrossCheck(t *testing.T) {
	for _, cat := range []core.Category{core.TrainTest, core.TestHit, core.SpillOver} {
		vp := runCase(t, cat, testOpt(core.TimingWindow, LVP))
		if !vp.Effective() || vp.MWp >= 0.05 {
			t.Errorf("%v: t-test p=%.4f, Mann-Whitney p=%.4f — both must detect the attack", cat, vp.P, vp.MWp)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if _, err := Run(core.TrainTest, Options{Runs: -1}); err == nil {
		t.Error("negative runs should fail")
	}
	if _, err := Run(core.TrainTest, Options{Defense: Stack(RandomWindow(-2))}); err == nil {
		t.Error("negative window should fail")
	}
}
