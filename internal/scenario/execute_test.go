package scenario

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vpsec/internal/attacks"
	"vpsec/internal/core"
	"vpsec/internal/defense"
	"vpsec/internal/obs"
)

// small is the trial count the equivalence tests run: enough for the
// statistics code to execute every path, small enough to keep the
// suite fast.
const small = 6

// sameCase asserts a scenario-produced case result carries the exact
// observations the legacy entry point produced — same seed derivation,
// same trial schedule.
func sameCase(t *testing.T, name string, got, want attacks.CaseResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Mapped, want.Mapped) || !reflect.DeepEqual(got.Unmapped, want.Unmapped) {
		t.Fatalf("%s: observations differ from the legacy entry point", name)
	}
	if got.P != want.P || got.SuccessRate != want.SuccessRate || got.RateBps != want.RateBps {
		t.Fatalf("%s: statistics differ: got p=%v rate=%v, want p=%v rate=%v",
			name, got.P, got.RateBps, want.P, want.RateBps)
	}
}

// TestExecuteCaseMatchesRun: a KindCase spec is the same experiment as
// a hand-built attacks.Run call.
func TestExecuteCaseMatchesRun(t *testing.T) {
	spec := Spec{
		Kind:       KindCase,
		Predictor:  "vtage",
		Confidence: 4,
		Channel:    core.Persistent.String(),
		Category:   string(core.TestHit),
		Runs:       small,
		Seed:       7,
	}
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := attacks.Run(core.TestHit, attacks.Options{
		Predictor: attacks.VTAGE, Confidence: 4, Channel: core.Persistent,
		Runs: small, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameCase(t, "case", res.Case(), want)
}

// TestExecuteSeedZero: a spec pinning seed 0 must run seed 0, exactly
// like the legacy `-seed 0` flag — Execute must not "default" it away.
func TestExecuteSeedZero(t *testing.T) {
	spec := Spec{Kind: KindCase, Category: string(core.TrainTest), Runs: small, Seed: 0}
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := attacks.Run(core.TrainTest, attacks.Options{Runs: small, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	sameCase(t, "seed0", res.Case(), want)
}

// TestExecuteVariantMatchesRunVariant covers KindVariant dispatch.
func TestExecuteVariantMatchesRunVariant(t *testing.T) {
	v := core.Reduce()[0]
	spec := Spec{Kind: KindVariant, Variant: v.Pattern.String(), Runs: small, Seed: 3}
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := attacks.RunVariant(context.Background(), v, attacks.Options{Runs: small, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sameCase(t, "variant", res.Case(), want)
}

// TestExecuteEvictionMatches covers KindEviction dispatch.
func TestExecuteEvictionMatches(t *testing.T) {
	spec := Spec{Kind: KindEviction, Runs: small, Seed: 5}
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := attacks.RunTrainTestEviction(context.Background(), attacks.Options{Channel: core.TimingWindow, Runs: small, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sameCase(t, "eviction", res.Case(), want)
}

// TestExecuteSMTMatches covers KindSMT dispatch.
func TestExecuteSMTMatches(t *testing.T) {
	spec := Spec{Kind: KindSMT, Category: string(core.TestHit),
		Channel: core.Volatile.String(), Runs: small, Seed: 2}
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := attacks.RunVolatileSMT(context.Background(), core.TestHit, attacks.Options{
		Channel: core.Volatile, Runs: small, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameCase(t, "smt", res.Case(), want)
}

// TestExecuteDefenseMatchesStrategy: a named-strategy defense spec
// compiles to the same DefenseStack the defense package uses.
func TestExecuteDefenseMatchesStrategy(t *testing.T) {
	spec := Spec{Kind: KindCase, Category: string(core.TestHit), Runs: small, Seed: 9,
		Defense: &DefenseSpec{Strategy: "A+R(9)+D"}}
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := defense.StrategyNamed("A+R(9)+D")
	if err != nil {
		t.Fatal(err)
	}
	want, err := attacks.Run(core.TestHit, attacks.Options{Runs: small, Seed: 9, Defense: st.Stack})
	if err != nil {
		t.Fatal(err)
	}
	sameCase(t, "defense", res.Case(), want)

	// Explicit fields spell the same configuration.
	explicit := Spec{Kind: KindCase, Category: string(core.TestHit), Runs: small, Seed: 9,
		Defense: &DefenseSpec{AType: true, RWindow: 9, DType: true}}
	res2, err := Execute(context.Background(), explicit)
	if err != nil {
		t.Fatal(err)
	}
	sameCase(t, "defense-explicit", res2.Case(), want)
}

// TestExecuteNoiseAndConfSweeps cover the sweep kinds against their
// legacy entry points.
func TestExecuteNoiseAndConfSweeps(t *testing.T) {
	spec := Spec{Kind: KindNoiseSweep, Category: string(core.TrainTest),
		Runs: small, Seed: 4, Jitters: []uint64{0, 50}}
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wantN, err := attacks.NoiseSweep(context.Background(), core.TrainTest, []uint64{0, 50}, attacks.Options{Runs: small, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Noise, wantN) {
		t.Fatalf("noise sweep differs: %+v vs %+v", res.Noise, wantN)
	}

	cs := Spec{Kind: KindConfSweep, Category: string(core.TrainTest),
		Runs: small, Seed: 4, Confidences: []int{2, 3}}
	resC, err := Execute(context.Background(), cs)
	if err != nil {
		t.Fatal(err)
	}
	wantC, err := attacks.ConfidenceSweep(context.Background(), core.TrainTest, []int{2, 3}, attacks.Options{Runs: small, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resC.Conf, wantC) {
		t.Fatalf("conf sweep differs: %+v vs %+v", resC.Conf, wantC)
	}
}

// TestExecuteDefenseSweepMatches covers KindDefenseSweep against
// defense.SweepRWindow.
func TestExecuteDefenseSweepMatches(t *testing.T) {
	spec := Spec{Kind: KindDefenseSweep, Category: string(core.TrainTest),
		MaxWindow: 2, Runs: small, Seed: 1}
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := defense.SweepRWindow(context.Background(), core.TrainTest, 2, attacks.Options{
		Channel: core.TimingWindow, Runs: small, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweeps) != 1 || !reflect.DeepEqual(res.Sweeps[0].Points, want) {
		t.Fatalf("defense sweep differs")
	}
	if res.Sweeps[0].MinWindow != defense.MinimalSecureWindow(want) {
		t.Fatalf("minimal window differs")
	}
}

// TestExecuteFigurePanels: a figure spec runs the paper's four panels
// in order, each equal to the legacy per-panel Run call.
func TestExecuteFigurePanels(t *testing.T) {
	spec := Spec{Kind: KindFigure, Category: string(core.TrainTest), Runs: small, Seed: 1}
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 4 {
		t.Fatalf("figure produced %d panels, want 4", len(res.Cases))
	}
	i := 0
	for _, ch := range []core.Channel{core.TimingWindow, core.Persistent} {
		for _, pk := range []attacks.PredictorKind{attacks.NoVP, attacks.LVP} {
			want, err := attacks.Run(core.TrainTest, attacks.Options{
				Predictor: pk, Channel: ch, Runs: small, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			sameCase(t, "figure panel", res.Cases[i], want)
			i++
		}
	}
}

// TestExecuteSim runs a minimal program through the KindSim executor
// and checks it against a registry-built machine — and that the legacy
// vpsim FCM convention (Confidence used directly, default history)
// still holds through the shared factory.
func TestExecuteSim(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.vasm")
	prog := strings.Join([]string{
		"movi r1, 5",
		"movi r2, 7",
		"add r3, r1, r2",
		"halt",
	}, "\n") + "\n"
	if err := os.WriteFile(path, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), Spec{Kind: KindSim, Program: path, Predictor: "fcm", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim == nil || res.Sim.Run.Retired == 0 {
		t.Fatalf("sim result empty: %+v", res.Sim)
	}
	if res.Sim.Instructions != 4 {
		t.Fatalf("assembled %d instructions, want 4", res.Sim.Instructions)
	}
}

// TestExecuteCancelledEveryKind: cancellation reaches every scenario
// kind. One spec per kind — the first registered one, or a minimal
// program for KindSim, which the registry does not hold — executed on
// an already-cancelled context must fail with context.Canceled at both
// the sequential and the parallel trial path, instead of running on a
// background context to completion.
func TestExecuteCancelledEveryKind(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	byKind := map[Kind]Spec{
		KindSim: {Name: "sim", Kind: KindSim, Program: "../../examples/progs/pointer-chase.vasm"},
	}
	for _, s := range All() {
		if _, ok := byKind[s.Kind]; !ok {
			byKind[s.Kind] = s
		}
	}
	for _, k := range Kinds() {
		s, ok := byKind[k]
		if !ok {
			t.Errorf("kind %q: no spec to execute", k)
			continue
		}
		s.Runs = 2
		for _, jobs := range []int{1, 2} {
			s.Jobs = jobs
			if _, err := Execute(ctx, s); !errors.Is(err, context.Canceled) {
				t.Errorf("kind %q (%s) jobs=%d: err = %v, want context.Canceled", k, s.Name, jobs, err)
			}
		}
	}
}

// trialCanceller is an obs sink that counts ended "trial" spans and,
// when k > 0, calls cancel as the k-th one ends. The tracer serializes
// Emit, so the count needs no lock.
type trialCanceller struct {
	k, ended int
	cancel   context.CancelFunc
}

func (c *trialCanceller) Emit(e obs.Event) {
	if e.Name != "trial" || e.Ph != obs.PhaseEnd {
		return
	}
	c.ended++
	if c.ended == c.k {
		c.cancel()
	}
}

func (c *trialCanceller) Close() error { return nil }

// TestExecuteCancelAfterTrialEveryKind: a cancellation that lands
// mid-run leaves nothing behind in the pooled trial state (attack
// machines, and the cache suite's interpreters and jitter generators).
// For one spec per kind that runs trials, picked as in
// TestExecuteCancelledEveryKind, a reference run counts the trial
// spans; a second run cancels its context when half of them have
// ended and must fail with context.Canceled; a third run on a fresh
// context must reproduce the reference byte-for-byte. Both the
// sequential and the parallel trial path are checked.
func TestExecuteCancelAfterTrialEveryKind(t *testing.T) {
	byKind := map[Kind]Spec{}
	for _, s := range All() {
		if _, ok := byKind[s.Kind]; !ok {
			byKind[s.Kind] = s
		}
	}
	for _, k := range Kinds() {
		if k == KindSim {
			continue // one program run, no trials
		}
		s, ok := byKind[k]
		if !ok {
			t.Errorf("kind %q: no spec to execute", k)
			continue
		}
		s.Runs = 2
		switch k {
		case KindDefenseSweep:
			s.MaxWindow = 1
		case KindNoiseSweep:
			s.Jitters = []uint64{0}
		case KindConfSweep:
			s.Confidences = []int{2}
		}
		for _, jobs := range []int{1, 2} {
			s.Jobs = jobs
			counter := &trialCanceller{}
			s.Trace = obs.New(counter)
			ref, err := Execute(context.Background(), s)
			if err != nil {
				t.Fatalf("kind %q (%s) jobs=%d: reference run: %v", k, s.Name, jobs, err)
			}
			want, err := ref.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if counter.ended < 2 {
				t.Errorf("kind %q (%s) jobs=%d: %d trials, too few to cancel after one", k, s.Name, jobs, counter.ended)
				continue
			}

			ctx, cancel := context.WithCancel(context.Background())
			s.Trace = obs.New(&trialCanceller{k: counter.ended / 2, cancel: cancel})
			_, err = Execute(ctx, s)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("kind %q (%s) jobs=%d: cancelled after trial %d of %d: err = %v, want context.Canceled",
					k, s.Name, jobs, counter.ended/2, counter.ended, err)
			}

			s.Trace = nil
			again, err := Execute(context.Background(), s)
			if err != nil {
				t.Fatalf("kind %q (%s) jobs=%d: rerun: %v", k, s.Name, jobs, err)
			}
			got, err := again.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("kind %q (%s) jobs=%d: rerun after a cancelled run differs from the reference", k, s.Name, jobs)
			}
		}
	}
}

// TestRegisteredScenariosExecute runs every registered scenario at a
// tiny trial count, proving each named spec actually dispatches. The
// heavyweight kinds (full tables, matrices, sweeps) are exercised via
// shrunken copies so the suite stays fast.
func TestRegisteredScenariosExecute(t *testing.T) {
	if testing.Short() {
		t.Skip("executes the whole registry")
	}
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			small := s
			small.Runs = 2
			switch small.Kind {
			case KindTableIII, KindDefenseMatrix:
				small.Runs = 2
			case KindDefenseSweep:
				small.MaxWindow = 1
			case KindNoiseSweep:
				small.Jitters = []uint64{0}
			case KindConfSweep:
				small.Confidences = []int{2}
			}
			if _, err := Execute(context.Background(), small); err != nil {
				t.Fatal(err)
			}
		})
	}
}
