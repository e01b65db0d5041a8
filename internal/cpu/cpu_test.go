package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vpsec/internal/isa"
	"vpsec/internal/predictor"
)

// newTestMachine builds a machine with the given predictor and no
// timing noise.
func newTestMachine(t *testing.T, pred predictor.Predictor) *Machine {
	t.Helper()
	m, err := NewMachine(Config{}, nil, pred, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustRun(t *testing.T, m *Machine, prog *isa.Program) RunResult {
	t.Helper()
	proc, err := m.NewProcess(1, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(proc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertMatchesInterp runs prog on both the golden interpreter and the
// pipeline and compares all architectural registers and every written
// memory word.
func assertMatchesInterp(t *testing.T, prog *isa.Program) RunResult {
	t.Helper()
	it := isa.NewInterp(prog)
	if _, err := it.Run(prog); err != nil {
		t.Fatal(err)
	}
	lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := newTestMachine(t, lvp)
	res := mustRun(t, m, prog)
	for r := 0; r < isa.NumRegs; r++ {
		if it.Regs[r] != res.Regs[r] {
			t.Errorf("reg r%d: interp %d, pipeline %d", r, it.Regs[r], res.Regs[r])
		}
	}
	for a, v := range it.Mem {
		if got := m.Hier.Mem.Peek(a); got != v {
			t.Errorf("mem[%#x]: interp %d, pipeline %d", a, v, got)
		}
	}
	return res
}

func TestPipelineALUEquivalence(t *testing.T) {
	prog := isa.NewBuilder("alu").
		MovI(isa.R1, 7).
		MovI(isa.R2, 3).
		Add(isa.R3, isa.R1, isa.R2).
		Sub(isa.R4, isa.R1, isa.R2).
		Mul(isa.R5, isa.R1, isa.R2).
		MulHU(isa.R6, isa.R1, isa.R2).
		DivU(isa.R7, isa.R1, isa.R2).
		RemU(isa.R8, isa.R1, isa.R2).
		And(isa.R9, isa.R1, isa.R2).
		Or(isa.R10, isa.R1, isa.R2).
		Xor(isa.R11, isa.R1, isa.R2).
		AddI(isa.R12, isa.R1, 100).
		AndI(isa.R13, isa.R1, 5).
		ShlI(isa.R14, isa.R1, 4).
		ShrI(isa.R15, isa.R1, 1).
		Mov(isa.R16, isa.R1).
		Halt().
		MustBuild()
	assertMatchesInterp(t, prog)
}

func TestPipelineLoopEquivalence(t *testing.T) {
	prog := isa.NewBuilder("loop").
		MovI(isa.R1, 0).
		MovI(isa.R2, 0).
		MovI(isa.R3, 100).
		Label("top").
		AddI(isa.R1, isa.R1, 1).
		Add(isa.R2, isa.R2, isa.R1).
		Blt(isa.R1, isa.R3, "top").
		Halt().
		MustBuild()
	res := assertMatchesInterp(t, prog)
	if res.Regs[isa.R2] != 5050 {
		t.Errorf("sum = %d, want 5050", res.Regs[isa.R2])
	}
}

func TestPipelineMemoryEquivalence(t *testing.T) {
	b := isa.NewBuilder("mem")
	b.Word(0x1000, 11).Word(0x1008, 22)
	b.MovI(isa.R1, 0x1000).
		Load(isa.R2, isa.R1, 0).
		Load(isa.R3, isa.R1, 8).
		Add(isa.R4, isa.R2, isa.R3).
		Store(isa.R1, 16, isa.R4).
		Load(isa.R5, isa.R1, 16).
		Flush(isa.R1, 0).
		Fence().
		Load(isa.R6, isa.R1, 0).
		Halt()
	res := assertMatchesInterp(t, b.MustBuild())
	if res.Regs[isa.R5] != 33 || res.Regs[isa.R6] != 11 {
		t.Errorf("r5=%d r6=%d", res.Regs[isa.R5], res.Regs[isa.R6])
	}
}

func TestPipelineStoreToLoadForwarding(t *testing.T) {
	// The load of a just-stored value must see the store (via
	// forwarding, since the store has not committed when the load
	// wants to issue).
	prog := isa.NewBuilder("fwd").
		MovI(isa.R1, 0x2000).
		MovI(isa.R2, 77).
		Store(isa.R1, 0, isa.R2).
		Load(isa.R3, isa.R1, 0).
		AddI(isa.R4, isa.R3, 1).
		Halt().
		MustBuild()
	m := newTestMachine(t, nil)
	res := mustRun(t, m, prog)
	if res.Regs[isa.R3] != 77 || res.Regs[isa.R4] != 78 {
		t.Errorf("forwarded load r3=%d r4=%d", res.Regs[isa.R3], res.Regs[isa.R4])
	}
	if res.Forwards == 0 {
		t.Error("expected at least one store-to-load forward")
	}
}

func TestPipelineBranchSquashRecovers(t *testing.T) {
	// Wrong-path instructions after a taken branch must not commit.
	prog := isa.NewBuilder("br").
		MovI(isa.R1, 1).
		MovI(isa.R2, 1).
		Beq(isa.R1, isa.R2, "taken").
		MovI(isa.R3, 99). // wrong path
		MovI(isa.R4, 99). // wrong path
		Label("taken").
		MovI(isa.R5, 5).
		Halt().
		MustBuild()
	m := newTestMachine(t, nil)
	res := mustRun(t, m, prog)
	if res.Regs[isa.R3] != 0 || res.Regs[isa.R4] != 0 {
		t.Errorf("wrong-path state committed: r3=%d r4=%d", res.Regs[isa.R3], res.Regs[isa.R4])
	}
	if res.Regs[isa.R5] != 5 {
		t.Errorf("correct path lost: r5=%d", res.Regs[isa.R5])
	}
	if res.BranchSquash == 0 {
		t.Error("taken branch should count a squash")
	}
	assertMatchesInterp(t, prog)
}

func TestPipelineCacheTiming(t *testing.T) {
	// Two timed loads of the same address: miss then hit.
	prog := isa.NewBuilder("timing").
		Word(0x1000, 5).
		MovI(isa.R1, 0x1000).
		Rdtsc(isa.R10).
		Load(isa.R2, isa.R1, 0).
		Fence().
		Rdtsc(isa.R11).
		Load(isa.R3, isa.R1, 0).
		Fence().
		Rdtsc(isa.R12).
		Halt().
		MustBuild()
	m := newTestMachine(t, nil)
	res := mustRun(t, m, prog)
	missT := res.Regs[isa.R11] - res.Regs[isa.R10]
	hitT := res.Regs[isa.R12] - res.Regs[isa.R11]
	if hitT*5 > missT {
		t.Errorf("hit (%d cycles) not much faster than miss (%d cycles)", hitT, missT)
	}
	if res.LoadMisses != 1 {
		t.Errorf("load misses = %d, want 1", res.LoadMisses)
	}
}

func TestPipelineFlushForcesMiss(t *testing.T) {
	prog := isa.NewBuilder("flush").
		Word(0x1000, 5).
		MovI(isa.R1, 0x1000).
		Load(isa.R2, isa.R1, 0). // warm
		Fence().
		Flush(isa.R1, 0).
		Fence().
		Rdtsc(isa.R10).
		Load(isa.R3, isa.R1, 0). // must miss again
		Fence().
		Rdtsc(isa.R11).
		Halt().
		MustBuild()
	m := newTestMachine(t, nil)
	res := mustRun(t, m, prog)
	if dt := res.Regs[isa.R11] - res.Regs[isa.R10]; dt < m.Hier.Mem.Latency {
		t.Errorf("post-flush load took %d cycles, want >= DRAM latency %d", dt, m.Hier.Mem.Latency)
	}
	if res.LoadMisses != 2 {
		t.Errorf("load misses = %d, want 2", res.LoadMisses)
	}
}

// trainAndTriggerProgram builds the canonical train+trigger kernel:
// iterations of { flush target; timed load + value-dependent dependent
// load } with per-iteration latencies stored to a results array. The
// load sits at one PC (inside the loop), so a PC-indexed VPS trains on
// it; after conf iterations the VPS predicts and the dependent load
// overlaps the miss.
//
//	results[i] = cycles for iteration i's load + dependent chain
const (
	targetAddr  = 0x1000
	depBase     = 0x4000
	resultsBase = 0x8000
)

func trainAndTriggerProgram(iters int, targetValue uint64) *isa.Program {
	b := isa.NewBuilder("train-trigger")
	b.Word(targetAddr, targetValue)
	b.MovI(isa.R1, targetAddr)
	b.MovI(isa.R9, depBase)
	b.MovI(isa.R10, resultsBase)
	b.MovI(isa.R3, 0)
	b.MovI(isa.R4, int64(iters))
	b.Label("loop")
	// Evict the target and the dependent line the loaded value selects.
	b.Flush(isa.R1, 0)
	b.AndI(isa.R5, isa.R0, 0) // r5 = 0 (placeholder dep addr computed below)
	b.Flush(isa.R9, 0)        // dependent region base line
	b.Fence()
	b.Rdtsc(isa.R20)
	b.Load(isa.R2, isa.R1, 0)    // the attacked load (fixed PC)
	b.AndI(isa.R5, isa.R2, 0x38) // dependent address bits from the value
	b.Add(isa.R6, isa.R9, isa.R5)
	b.Load(isa.R7, isa.R6, 0) // value-dependent dependent load
	b.Fence()
	b.Rdtsc(isa.R21)
	b.Sub(isa.R22, isa.R21, isa.R20)
	b.ShlI(isa.R11, isa.R3, 3)
	b.Add(isa.R12, isa.R10, isa.R11)
	b.Store(isa.R12, 0, isa.R22) // results[i] = dt
	// Flush the dependent line actually touched so the next iteration
	// misses again.
	b.Flush(isa.R6, 0)
	b.Fence()
	b.AddI(isa.R3, isa.R3, 1)
	b.Blt(isa.R3, isa.R4, "loop")
	b.Halt()
	return b.MustBuild()
}

func iterationTimes(t *testing.T, m *Machine, iters int, value uint64) ([]uint64, RunResult) {
	t.Helper()
	prog := trainAndTriggerProgram(iters, value)
	res := mustRun(t, m, prog)
	out := make([]uint64, iters)
	for i := range out {
		out[i] = m.Hier.Mem.Peek(uint64(resultsBase + 8*i))
	}
	return out, res
}

func TestValuePredictionAcceleratesTrainedLoad(t *testing.T) {
	lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := newTestMachine(t, lvp)
	times, res := iterationTimes(t, m, 8, 0xAB)

	// Iterations 0..3 train (no prediction): latency is two serialized
	// misses. Iterations 4..7 predict correctly: the dependent miss
	// overlaps the verification, so latency collapses to ~one miss.
	untrained := times[1]
	trained := times[6]
	if trained*3 > untrained*2 {
		t.Errorf("trained %d cycles vs untrained %d: prediction gave no speedup", trained, untrained)
	}
	if res.VerifyCorrect == 0 {
		t.Error("no correct predictions recorded")
	}
}

func TestNoPredictorNoSpeedup(t *testing.T) {
	m := newTestMachine(t, nil) // no-VP baseline
	times, _ := iterationTimes(t, m, 8, 0xAB)
	early, late := times[1], times[6]
	diff := int64(early) - int64(late)
	if diff < 0 {
		diff = -diff
	}
	if diff > int64(early)/10 {
		t.Errorf("no-VP timing drifted: early %d late %d", early, late)
	}
}

func TestMispredictionSquashAndRecovery(t *testing.T) {
	// Train the load on one value, then change memory so the next
	// trigger mispredicts; architectural state must still be correct
	// and the misprediction must cost more than a correct prediction.
	lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := newTestMachine(t, lvp)

	b := isa.NewBuilder("mispredict")
	b.Word(targetAddr, 0x08)
	b.MovI(isa.R1, targetAddr)
	b.MovI(isa.R14, 1) // constant for the already-modified flag check
	b.MovI(isa.R3, 0)
	b.MovI(isa.R4, 3) // enough to train (conf 2) and predict once
	b.Label("trainloop")
	b.Flush(isa.R1, 0)
	b.Fence()
	b.Load(isa.R2, isa.R1, 0)
	b.Fence()
	b.AddI(isa.R3, isa.R3, 1)
	b.Blt(isa.R3, isa.R4, "trainloop")
	b.Beq(isa.R15, isa.R14, "end") // second exit: done
	b.MovI(isa.R15, 1)
	// Change the value architecturally (store goes through commit),
	// then re-enter the loop once more so the trigger load shares the
	// trained PC and mispredicts.
	b.MovI(isa.R5, 0x10)
	b.Store(isa.R1, 0, isa.R5)
	b.Fence()
	b.MovI(isa.R4, 4)
	b.Jmp("trainloop")
	b.Label("end")
	b.Halt()
	prog := b.MustBuild()

	proc, err := m.NewProcess(1, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(proc)
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyWrong == 0 {
		t.Error("expected at least one value misprediction")
	}
	// The architecturally visible final value must be the stored one.
	if res.Regs[isa.R2] != 0x10 {
		t.Errorf("post-squash load r2 = %#x, want 0x10", res.Regs[isa.R2])
	}
}

func TestTransientLoadInstallsCacheLine(t *testing.T) {
	// The persistent-channel primitive (Fig. 4): a dependent load that
	// executes under a value misprediction installs its cache line even
	// though it is squashed. With the D-type defense the line must NOT
	// be installed.
	run := func(effects EffectsPolicy) (wrongPathCached bool, rightPathCached bool) {
		lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(Config{Effects: effects}, nil, lvp, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}

		// Train value 0x08 at the loop load, then switch memory to 0x10
		// and re-enter the loop for the trigger: the transient
		// dependent load touches depBase + (0x08&0x38)<<3 = +0x40 via
		// the *predicted* (stale) value; the architectural replay
		// touches depBase + (0x10&0x38)<<3 = +0x80 — different lines.
		b := isa.NewBuilder("transient")
		b.Word(targetAddr, 0x08)
		b.MovI(isa.R1, targetAddr)
		b.MovI(isa.R9, depBase)
		b.MovI(isa.R14, 1)
		b.MovI(isa.R3, 0)
		b.MovI(isa.R4, 3)
		b.Label("loop")
		b.Flush(isa.R1, 0)
		b.Fence()
		b.Load(isa.R2, isa.R1, 0) // attacked load (fixed PC)
		b.AndI(isa.R5, isa.R2, 0x38)
		b.ShlI(isa.R5, isa.R5, 3) // line-sized spacing (64B per value step of 8)
		b.Add(isa.R6, isa.R9, isa.R5)
		b.Load(isa.R7, isa.R6, 0) // dependent (transient under misprediction)
		b.Fence()
		b.AddI(isa.R3, isa.R3, 1)
		b.Blt(isa.R3, isa.R4, "loop")
		b.Beq(isa.R15, isa.R14, "end")
		b.MovI(isa.R15, 1)
		// Change the value, flush both candidate dependent lines so any
		// later presence is attributable to the trigger, and re-enter
		// the loop once more.
		b.MovI(isa.R5, 0x10)
		b.Store(isa.R1, 0, isa.R5)
		b.Fence()
		b.MovI(isa.R6, depBase+0x40) // f(0x08): transient (predicted) path
		b.Flush(isa.R6, 0)
		b.MovI(isa.R6, depBase+0x80) // f(0x10): architectural path
		b.Flush(isa.R6, 0)
		b.Fence()
		b.MovI(isa.R4, 4)
		b.Jmp("loop")
		b.Label("end")
		b.Halt()
		prog := b.MustBuild()

		proc, err := m.NewProcess(1, prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(proc)
		if err != nil {
			t.Fatal(err)
		}
		if res.VerifyWrong == 0 {
			t.Fatal("trigger did not mispredict; test setup broken")
		}
		return m.Hier.Cached(depBase + 0x40), m.Hier.Cached(depBase + 0x80)
	}

	wrong, right := run(EffectsImmediate)
	if !wrong {
		t.Error("baseline: transient dependent line was not installed (no persistent channel)")
	}
	if !right {
		t.Error("baseline: architectural dependent line missing")
	}
	wrongD, rightD := run(EffectsDelay)
	if wrongD {
		t.Error("D-type: transient line installed despite delay-side-effects")
	}
	if !rightD {
		t.Error("D-type: committed load's line missing (Install at commit broken)")
	}
	// The recomputation policy must give the same architectural cache
	// outcome as D-type: no transient line, committed line installed.
	wrongR, rightR := run(EffectsRecompute)
	if wrongR {
		t.Error("recompute: transient line installed despite shadow buffering")
	}
	if !rightR {
		t.Error("recompute: committed load's line missing (Install at commit broken)")
	}
}

func TestCrossProcessPredictorCollision(t *testing.T) {
	// Two processes, same virtual layout: the sender trains a load PC;
	// the receiver's load at the same virtual PC gets the prediction
	// (the cross-process primitive behind Figs. 3 and 4).
	lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := newTestMachine(t, lvp)

	trainer := trainAndTriggerProgram(4, 0x123456)
	sender, err := m.NewProcess(1, trainer, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(sender); err != nil {
		t.Fatal(err)
	}

	// Receiver: identical program (thus identical virtual PCs), its own
	// physical memory, different data value at the same virtual addr.
	recvProg := trainAndTriggerProgram(1, 0x999999)
	receiver, err := m.NewProcess(2, recvProg, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(receiver)
	if err != nil {
		t.Fatal(err)
	}
	// The receiver's single (cold) load must have received a prediction
	// trained by the sender — and mispredicted, since the receiver's
	// memory holds a different value.
	if res.Predictions == 0 {
		t.Error("receiver load was not predicted from sender-trained state")
	}
	if res.VerifyWrong == 0 {
		t.Error("receiver's prediction should be the sender's value (mispredict)")
	}
	if res.Regs[isa.R2] != 0x999999 {
		t.Errorf("receiver architectural value corrupted: %#x", res.Regs[isa.R2])
	}
}

func TestRdtscMonotoneAcrossRuns(t *testing.T) {
	m := newTestMachine(t, nil)
	p1 := isa.NewBuilder("a").Rdtsc(isa.R1).Halt().MustBuild()
	p2 := isa.NewBuilder("b").Rdtsc(isa.R1).Halt().MustBuild()
	procA, _ := m.NewProcess(1, p1, 0)
	procB, _ := m.NewProcess(2, p2, 1<<20)
	ra, err := m.Run(procA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := m.Run(procB)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Regs[isa.R1] <= ra.Regs[isa.R1] {
		t.Errorf("global time base not monotone: %d then %d", ra.Regs[isa.R1], rb.Regs[isa.R1])
	}
}

func TestMaxCyclesWatchdog(t *testing.T) {
	p := isa.NewProgram("spin")
	p.Code = []isa.Instr{{Op: isa.JMP, Target: 0}, {Op: isa.HALT}}
	m, err := NewMachine(Config{MaxCycles: 1000}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := m.NewProcess(1, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(proc); err == nil {
		t.Error("expected watchdog error")
	}
}

func TestConfigValidate(t *testing.T) {
	if _, err := NewMachine(Config{FetchWidth: -1}, nil, nil, nil); err == nil {
		t.Error("negative width should fail")
	}
	if _, err := NewMachine(Config{}, nil, nil, nil); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestIPC(t *testing.T) {
	if (RunResult{}).IPC() != 0 {
		t.Error("zero-cycle IPC should be 0")
	}
	r := RunResult{Cycles: 100, Retired: 250}
	if r.IPC() != 2.5 {
		t.Errorf("IPC = %v", r.IPC())
	}
}

// Property: random straight-line ALU/store programs retire with
// architectural state identical to the golden interpreter.
func TestPropertyRandomProgramsMatchInterp(t *testing.T) {
	ops := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.MULHU, isa.DIVU,
		isa.REMU, isa.AND, isa.OR, isa.XOR, isa.SLTU, isa.ADDI,
		isa.ANDI, isa.SHLI, isa.SHRI, isa.MOV, isa.MOVI}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := isa.NewProgram("rand")
		// Seed some registers.
		for r := 1; r <= 8; r++ {
			p.Code = append(p.Code, isa.Instr{Op: isa.MOVI, Dst: isa.Reg(r), Imm: rng.Int63()})
		}
		for i := 0; i < 60; i++ {
			if rng.Intn(6) == 0 {
				// store then load back
				base := isa.Reg(1 + rng.Intn(8))
				src := isa.Reg(1 + rng.Intn(16))
				dst := isa.Reg(1 + rng.Intn(16))
				off := int64(rng.Intn(8)) * 8
				p.Code = append(p.Code,
					isa.Instr{Op: isa.ANDI, Dst: isa.R20, Src1: base, Imm: 0xfff8},
					isa.Instr{Op: isa.STORE, Src1: isa.R20, Imm: off, Src2: src},
					isa.Instr{Op: isa.LOAD, Dst: dst, Src1: isa.R20, Imm: off},
				)
				continue
			}
			op := ops[rng.Intn(len(ops))]
			in := isa.Instr{
				Op:   op,
				Dst:  isa.Reg(1 + rng.Intn(16)),
				Src1: isa.Reg(rng.Intn(17)),
				Src2: isa.Reg(rng.Intn(17)),
				Imm:  rng.Int63n(1 << 20),
			}
			p.Code = append(p.Code, in)
		}
		p.Code = append(p.Code, isa.Instr{Op: isa.HALT})

		it := isa.NewInterp(p)
		if _, err := it.Run(p); err != nil {
			return false
		}
		lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2})
		if err != nil {
			return false
		}
		m, err := NewMachine(Config{}, nil, lvp, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		proc, err := m.NewProcess(1, p, 0)
		if err != nil {
			return false
		}
		res, err := m.Run(proc)
		if err != nil {
			return false
		}
		for r := 0; r < isa.NumRegs; r++ {
			if it.Regs[r] != res.Regs[r] {
				return false
			}
		}
		for a, v := range it.Mem {
			if m.Hier.Mem.Peek(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: pipelines with different widths produce identical
// architectural results (width only affects timing).
func TestPropertyWidthInvariance(t *testing.T) {
	prog := isa.NewBuilder("width").
		MovI(isa.R1, 0).
		MovI(isa.R2, 1).
		MovI(isa.R3, 30).
		MovI(isa.R4, 0x3000).
		Label("top").
		Add(isa.R5, isa.R1, isa.R2). // fib
		Mov(isa.R1, isa.R2).
		Mov(isa.R2, isa.R5).
		Store(isa.R4, 0, isa.R5).
		Load(isa.R6, isa.R4, 0).
		AddI(isa.R4, isa.R4, 8).
		AddI(isa.R7, isa.R7, 1).
		Blt(isa.R7, isa.R3, "top").
		Halt().
		MustBuild()

	var want [isa.NumRegs]uint64
	for i, cfg := range []Config{
		{FetchWidth: 1, IssueWidth: 1, CommitWidth: 1, MemPorts: 1},
		{FetchWidth: 2, IssueWidth: 2, CommitWidth: 2},
		{FetchWidth: 8, IssueWidth: 8, CommitWidth: 8, ROBSize: 32},
	} {
		m, err := NewMachine(cfg, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		proc, err := m.NewProcess(1, prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(proc)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res.Regs
			continue
		}
		if res.Regs != want {
			t.Errorf("config %d: architectural registers diverge", i)
		}
	}
}
