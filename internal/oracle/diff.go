package oracle

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"vpsec/internal/cpu"
	"vpsec/internal/isa"
	"vpsec/internal/predictor"
	"vpsec/internal/trace"
)

// Spec names one point in the machine-configuration matrix the
// differential harness sweeps: a core configuration, a value-predictor
// factory, and latency noise. Every Spec must produce identical
// architectural results for every program — that is the contract.
type Spec struct {
	Name  string                     // stable identifier, printed in failures
	Cfg   cpu.Config                 // core configuration (CheckInvariants is forced on)
	Pred  func() predictor.Predictor // fresh predictor per run; nil means no value prediction
	Noise cpu.Noise                  // seeded latency jitter
	Seed  int64                      // machine RNG seed (jitter, probabilistic counters)
}

// Specs returns the standard differential matrix. It deliberately
// spans the recovery mechanisms (full squash vs selective replay),
// the D-type defense (delayed side effects), the A-type defense
// (a prediction on every miss) under selective replay, branch
// prediction on and off, several predictor families with attack-grade
// (low) confidence thresholds, latency jitter, and a deliberately tiny
// core where structural stalls (ROB, MSHR, port pressure) dominate.
func Specs() []Spec {
	lvp := func() predictor.Predictor {
		p, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2})
		if err != nil {
			panic(err)
		}
		return p
	}
	stride := func() predictor.Predictor {
		p, err := predictor.NewStride(predictor.StrideConfig{Confidence: 2})
		if err != nil {
			panic(err)
		}
		return p
	}
	fcm := func() predictor.Predictor {
		p, err := predictor.NewFCM(predictor.FCMConfig{Confidence: 2})
		if err != nil {
			panic(err)
		}
		return p
	}
	aLVP := func() predictor.Predictor { return predictor.NewAType(lvp(), 0) }
	addrLVP := func() predictor.Predictor {
		p, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2, Scheme: predictor.ByDataAddr})
		if err != nil {
			panic(err)
		}
		return p
	}
	return []Spec{
		{Name: "base-none", Cfg: cpu.Config{}, Pred: nil, Seed: 1},
		{Name: "lvp-squash", Cfg: cpu.Config{}, Pred: lvp, Seed: 2},
		{Name: "lvp-replay", Cfg: cpu.Config{SelectiveReplay: true}, Pred: lvp, Seed: 3},
		{Name: "stride-delay", Cfg: cpu.Config{Effects: cpu.EffectsDelay}, Pred: stride, Seed: 4},
		{Name: "fcm-bimodal", Cfg: cpu.Config{BimodalBranch: true}, Pred: fcm, Seed: 5},
		{Name: "addr-lvp-replay-bimodal", Cfg: cpu.Config{SelectiveReplay: true, BimodalBranch: true}, Pred: addrLVP, Seed: 6},
		{Name: "tiny-core", Cfg: cpu.Config{FetchWidth: 1, IssueWidth: 1, CommitWidth: 1, ROBSize: 8, MemPorts: 1, MSHRs: 1}, Pred: lvp, Seed: 7},
		{Name: "lvp-noise", Cfg: cpu.Config{SelectiveReplay: true}, Pred: lvp, Noise: cpu.Noise{MemJitter: 13, HitJitter: 2}, Seed: 8},
		{Name: "lvp-recompute", Cfg: cpu.Config{Effects: cpu.EffectsRecompute}, Pred: lvp, Seed: 9},
		{Name: "a-lvp-replay", Cfg: cpu.Config{SelectiveReplay: true}, Pred: aLVP, Seed: 10},
	}
}

// Mismatch is a differential failure: the pipeline diverged from the
// in-order reference model (or violated a per-cycle microarchitectural
// invariant). It is a distinct type so Shrink can tell a reproduced
// divergence apart from incidental errors (e.g. the cycle watchdog on
// a mutated, no-longer-terminating program).
type Mismatch struct {
	Spec   string // Spec.Name of the diverging configuration
	Detail string // human-readable first point of divergence
}

// Error implements the error interface.
func (m *Mismatch) Error() string {
	return fmt.Sprintf("oracle: pipeline diverged from reference on spec %q: %s", m.Spec, m.Detail)
}

// mismatchf builds a Mismatch for spec.
func mismatchf(spec Spec, format string, args ...any) *Mismatch {
	return &Mismatch{Spec: spec.Name, Detail: fmt.Sprintf(format, args...)}
}

// Diff runs p on the in-order reference model and on an out-of-order
// machine built from spec, and returns a *Mismatch if the pipeline's
// committed state diverges from the oracle in any way:
//
//   - a different retired-instruction count;
//   - any difference in the canonical commit log (program order,
//     per-instruction register writes, memory effects, control flow);
//   - different final architectural registers or data memory;
//   - a per-cycle microarchitectural invariant violation
//     (cpu.ErrInvariant);
//   - incoherent run counters (verifications exceeding predictions,
//     retirements exceeding fetches).
//
// Non-Mismatch errors report programs outside the contract (RDTSC,
// validation failures) or watchdog trips.
func Diff(p *isa.Program, spec Spec) error {
	want, err := Run(p)
	if err != nil {
		return err
	}
	m, err := spec.machine()
	if err != nil {
		return err
	}
	var got []isa.Commit
	m.Events = func(ev trace.Event) {
		if ev.Kind == trace.Commit {
			got = append(got, ev.Commit)
		}
	}
	proc, err := m.NewProcess(1, p, 0)
	if err != nil {
		return err
	}
	res, err := m.Run(proc)
	if err != nil {
		if errors.Is(err, cpu.ErrInvariant) {
			return mismatchf(spec, "%v", err)
		}
		return fmt.Errorf("oracle: pipeline run failed on spec %q: %w", spec.Name, err)
	}
	return compare(spec, want, got, res, m.Hier.Mem.Snapshot())
}

// machine builds spec's out-of-order machine: the invariant checker
// is forced on, and the watchdog is 2M cycles unless the spec sets one.
func (spec Spec) machine() (*cpu.Machine, error) {
	var pred predictor.Predictor
	if spec.Pred != nil {
		pred = spec.Pred()
	}
	cfg := spec.Cfg
	cfg.CheckInvariants = true
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 2_000_000
	}
	m, err := cpu.NewMachine(cfg, nil, pred, rand.New(rand.NewSource(spec.Seed)))
	if err != nil {
		return nil, err
	}
	m.Noise = spec.Noise
	return m, nil
}

// compare checks one pipeline run against its reference: the commit
// log got, the run's retired count, final registers and counters, and
// gotMem, the data memory the run left in its own address space.
func compare(spec Spec, want *Result, got []isa.Commit, res cpu.RunResult, gotMem map[uint64]uint64) error {
	for i := range got {
		if i >= len(want.Log) {
			return mismatchf(spec, "commit %d: pipeline committed {%v}, reference already halted", i, got[i])
		}
		if got[i] != want.Log[i] {
			return mismatchf(spec, "commit %d: pipeline {%v} != reference {%v}", i, got[i], want.Log[i])
		}
	}
	if uint64(len(got)) != want.Retired || res.Retired != want.Retired {
		return mismatchf(spec, "retired %d commits (counter %d), reference retired %d", len(got), res.Retired, want.Retired)
	}
	for r := 0; r < isa.NumRegs; r++ {
		if res.Regs[r] != want.Regs[r] {
			return mismatchf(spec, "final r%d = %#x, reference %#x", r, res.Regs[r], want.Regs[r])
		}
	}
	for a, v := range want.Mem {
		if gotMem[a] != v {
			return mismatchf(spec, "final mem[%#x] = %#x, reference %#x", a, gotMem[a], v)
		}
	}
	for a, v := range gotMem {
		if v != 0 && want.Mem[a] != v {
			return mismatchf(spec, "final mem[%#x] = %#x, reference %#x", a, v, want.Mem[a])
		}
	}
	return checkCounters(spec, res)
}

// checkCounters validates the counter identities of a completed run:
// every verification corresponds to a prediction, and retirements
// never exceed fetches. The pred.<scope>.* counters are published from
// these same fields; their cross-run monotonicity, Resets included, is
// covered by internal/cpu's TestCountersMonotone.
func checkCounters(spec Spec, res cpu.RunResult) error {
	if res.VerifyCorrect+res.VerifyWrong > res.Predictions {
		return mismatchf(spec, "verified %d+%d predictions but only %d were made",
			res.VerifyCorrect, res.VerifyWrong, res.Predictions)
	}
	if res.Retired > res.Fetched {
		return mismatchf(spec, "retired %d > fetched %d", res.Retired, res.Fetched)
	}
	return nil
}

// Shrink minimizes a failing program by repeatedly NOP-ing out
// instructions and dropping initial data words while fails keeps
// returning true, to a fixpoint. Instruction count (and thus every
// branch target) is preserved, so the result stays valid; callers
// pass a fails that reproduces the *original* failure class — for a
// differential failure, errors.As(Diff(q, spec), new(*Mismatch)) —
// so the shrinker cannot wander onto a different defect (such as a
// mutated program tripping the watchdog).
func Shrink(p *isa.Program, fails func(*isa.Program) bool) *isa.Program {
	cur := cloneProgram(p)
	for changed := true; changed; {
		changed = false
		for i, in := range cur.Code {
			if in.Op == isa.NOP || in.Op == isa.HALT {
				continue
			}
			cand := cloneProgram(cur)
			cand.Code[i] = isa.Instr{Op: isa.NOP}
			if fails(cand) {
				cur = cand
				changed = true
			}
		}
		for a := range cur.Data {
			cand := cloneProgram(cur)
			delete(cand.Data, a)
			if fails(cand) {
				cur = cand
				changed = true
			}
		}
	}
	return cur
}

// cloneProgram deep-copies a program.
func cloneProgram(p *isa.Program) *isa.Program {
	q := &isa.Program{Name: p.Name, Code: append([]isa.Instr(nil), p.Code...), Data: make(map[uint64]uint64, len(p.Data))}
	for a, v := range p.Data {
		q.Data[a] = v
	}
	return q
}

// Dump renders a program and its reference commit log for failure
// reports: the disassembly, the initial data words, and the canonical
// log (or the reference-model error).
func Dump(p *isa.Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %q:\n%s", p.Name, p.Disassemble())
	if len(p.Data) > 0 {
		sb.WriteString("data:\n")
		for _, a := range sortedKeys(p.Data) {
			fmt.Fprintf(&sb, "  [%#x] = %#x\n", a, p.Data[a])
		}
	}
	res, err := Run(p)
	if err != nil {
		fmt.Fprintf(&sb, "reference: %v\n", err)
		return sb.String()
	}
	sb.WriteString("reference commit log:\n")
	sb.WriteString(FormatLog(res.Log))
	return sb.String()
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys(m map[uint64]uint64) []uint64 {
	out := make([]uint64, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
