package rsa

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"vpsec/internal/cpu"
	"vpsec/internal/isa"
	"vpsec/internal/mem"
	"vpsec/internal/predictor"
)

func testCfg() VictimConfig { return PaperVictim(24) }

// TestPaperVictim pins PaperVictim to the literal configurations the
// report and vplocality (24 bits) and vpfigures (51 bits) spelled out
// before it existed.
func TestPaperVictim(t *testing.T) {
	for _, want := range []VictimConfig{
		{Base: 0x1234567, Mod: 0x3b9aca07, Exponent: 0b101100111010110111001011, ExpBits: 24},
		{Base: 0x1234567, Mod: 0x3b9aca07, Exponent: 0b101100111010110111001011110011010110111001011010101, ExpBits: 51},
	} {
		if got := PaperVictim(want.ExpBits); got != want {
			t.Errorf("PaperVictim(%d) = %+v, want %+v", want.ExpBits, got, want)
		}
	}
}

// TestModExpKnown checks the host-side golden model on known answers.
func TestModExpKnown(t *testing.T) {
	for _, c := range []struct{ b, e, m, want uint64 }{
		{2, 10, 1000, 24},
		{3, 0, 7, 1},
		{0, 5, 7, 0},
		{5, 5, 1, 0},
		{7, 560, 561, 1}, // 561 is a Carmichael number
	} {
		if got := modExp(c.b, c.e, c.m); got != c.want {
			t.Errorf("modExp(%d, %d, %d) = %d, want %d", c.b, c.e, c.m, got, c.want)
		}
	}
}

func TestVictimConfigValidate(t *testing.T) {
	bad := []VictimConfig{
		{Base: 2, Mod: 4, Exponent: 5},              // even modulus
		{Base: 2, Mod: 1, Exponent: 5},              // tiny modulus
		{Base: 2, Mod: 1 << 62, Exponent: 5},        // even and too large
		{Base: 2, Mod: 1<<62 + 1, Exponent: 5},      // too large
		{Base: 2, Mod: 7, Exponent: 1, ExpBits: 61}, // too many bits
		{Base: 2, Mod: 7, Exponent: 0},              // no bits
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	if err := testCfg().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestVictimComputesModExp checks the ISA victim against the host-side
// golden model on the simulator, without any attack.
func TestVictimComputesModExp(t *testing.T) {
	cfg := testCfg()
	prog, err := BuildVictim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cpu.NewMachine(cpu.Config{}, mem.DefaultHierarchy(), predictor.NewNone(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	proc, err := m.NewProcess(1, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(proc); err != nil {
		t.Fatal(err)
	}
	want := modExp(cfg.Base, cfg.Exponent, cfg.Mod)
	if got := m.Hier.Mem.Peek(ResultAddr); got != want {
		t.Errorf("victim modexp = %#x, want %#x", got, want)
	}
}

// TestVictimCorrectUnderPrediction verifies value prediction (and its
// squashes) never corrupt the architectural result.
func TestVictimCorrectUnderPrediction(t *testing.T) {
	cfg := testCfg()
	res, err := Attack(context.Background(), cfg, AttackOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ResultOK {
		t.Error("victim result corrupted under the attack")
	}
}

// TestVictimMatchesInterp cross-checks the generated program on the
// untimed golden interpreter too.
func TestVictimMatchesInterp(t *testing.T) {
	cfg := testCfg()
	prog, err := BuildVictim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	it := isa.NewInterp(prog)
	if _, err := it.Run(prog); err != nil {
		t.Fatal(err)
	}
	want := modExp(cfg.Base, cfg.Exponent, cfg.Mod)
	if it.Mem[ResultAddr] != want {
		t.Errorf("interp modexp = %#x, want %#x", it.Mem[ResultAddr], want)
	}
}

// TestAttackRecoversExponent is the Fig. 7 headline: the per-iteration
// timing sequence recovers the full exponent with the LVP enabled.
func TestAttackRecoversExponent(t *testing.T) {
	cfg := testCfg()
	res, err := Attack(context.Background(), cfg, AttackOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered != cfg.Exponent {
		t.Errorf("recovered %#b, want %#b (success %.3f)", res.Recovered, cfg.Exponent, res.BitSuccess)
	}
	if res.BitSuccess < 0.95 {
		t.Errorf("bit success %.3f, want >= 0.95 (paper: 95.7%%)", res.BitSuccess)
	}
	if len(res.Series) != cfg.ExpBits {
		t.Errorf("series length %d, want %d", len(res.Series), cfg.ExpBits)
	}
	// Fig. 7 shape: e_bit=1 iterations are slower than e_bit=0 ones.
	var sum0, sum1, n0, n1 float64
	for _, o := range res.Series {
		if o.EBit == 0 {
			sum0 += o.Cycles
			n0++
		} else {
			sum1 += o.Cycles
			n1++
		}
	}
	if n0 == 0 || n1 == 0 {
		t.Fatal("test exponent must contain both bit values")
	}
	if sum1/n1 <= sum0/n0 {
		t.Errorf("e_bit=1 mean %.0f not slower than e_bit=0 mean %.0f", sum1/n1, sum0/n0)
	}
	// Transmission rate in the paper's band (they report 9.65 Kbps).
	if res.RateBps < 1e3 || res.RateBps > 100e3 {
		t.Errorf("rate %.0f bps implausible", res.RateBps)
	}
}

// TestAttackFailsWithoutVP is the control: without a value predictor
// the balanced victim leaks nothing.
func TestAttackFailsWithoutVP(t *testing.T) {
	cfg := testCfg()
	res, err := Attack(context.Background(), cfg, AttackOptions{Seed: 7,
		MakePredictor: func() (predictor.Predictor, error) { return predictor.NewNone(), nil }})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ResultOK {
		t.Error("no-VP run computed wrong result")
	}
	if res.BitSuccess > 0.8 {
		t.Errorf("no-VP bit success %.3f — the victim leaks without value prediction", res.BitSuccess)
	}
}

func TestKeyRecoveryRate(t *testing.T) {
	rate, err := KeyRecoveryRate(context.Background(), testCfg(), AttackOptions{Seed: 11}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 0.95 {
		t.Errorf("mean recovery rate %.3f, want >= 0.95", rate)
	}
	if _, err := KeyRecoveryRate(context.Background(), testCfg(), AttackOptions{}, 0); err == nil {
		t.Error("zero trials should fail")
	}
}

// TestAttackCancelled: an already-cancelled context stops the attack
// before the victim runs.
func TestAttackCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Attack(ctx, testCfg(), AttackOptions{Seed: 7}); !errors.Is(err, context.Canceled) {
		t.Errorf("Attack under a cancelled context: err %v, want context.Canceled", err)
	}
	if _, err := KeyRecoveryRate(ctx, testCfg(), AttackOptions{Seed: 7}, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("KeyRecoveryRate under a cancelled context: err %v, want context.Canceled", err)
	}
}

func TestAttackBuildErrorPropagates(t *testing.T) {
	if _, err := Attack(context.Background(), VictimConfig{Mod: 4}, AttackOptions{}); err == nil {
		t.Error("invalid victim config should fail")
	}
	if _, err := BuildVictim(VictimConfig{Mod: 4}); err == nil {
		t.Error("BuildVictim should validate")
	}
}

// Property: the generated victim computes base^exp mod m correctly on
// the golden interpreter for random parameters.
func TestPropertyVictimModExp(t *testing.T) {
	f := func(base, exp uint64, modSeed uint32) bool {
		mod := uint64(modSeed) | 3 // odd, >= 3
		exp &= 0xffff              // 16 bits keeps runtimes low
		if exp == 0 {
			exp = 1
		}
		cfg := VictimConfig{Base: base % (1 << 32), Mod: mod, Exponent: exp}
		prog, err := BuildVictim(cfg)
		if err != nil {
			return false
		}
		it := isa.NewInterp(prog)
		if _, err := it.Run(prog); err != nil {
			return false
		}
		return it.Mem[ResultAddr] == modExp(cfg.Base, exp, mod)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestFCMNeutralizesTheAlternationLeak: a finite-context-method
// predictor learns the pointer swap's strict A,B,A,B alternation, so
// both bit paths get correct predictions and the Fig. 7 timing split
// disappears — recovery collapses to chance. Context predictors
// neutralize this specific leak (while introducing pattern-based
// channels of their own); the paper's LVP/VTAGE threat remains.
func TestFCMNeutralizesTheAlternationLeak(t *testing.T) {
	cfg := testCfg()
	res, err := Attack(context.Background(), cfg, AttackOptions{Seed: 5, TrainRuns: 3,
		MakePredictor: func() (predictor.Predictor, error) {
			return predictor.NewFCM(predictor.FCMConfig{Confidence: 4, HistoryLen: 2})
		}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ResultOK {
		t.Error("FCM run computed a wrong result")
	}
	if res.BitSuccess > 0.75 {
		t.Errorf("FCM bit success %.2f: alternation leak should be gone", res.BitSuccess)
	}
	// The LVP baseline on identical parameters recovers everything.
	lvp, err := Attack(context.Background(), cfg, AttackOptions{Seed: 5, TrainRuns: 3})
	if err != nil {
		t.Fatal(err)
	}
	if lvp.BitSuccess < 0.95 {
		t.Errorf("LVP baseline regressed: %.2f", lvp.BitSuccess)
	}
}
