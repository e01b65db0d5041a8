package cpu

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"vpsec/internal/isa"
	"vpsec/internal/mem"
	"vpsec/internal/predictor"
	"vpsec/internal/trace"
)

// randomLoopProgram generates a program with nested bounded loops,
// branches, and memory traffic over a small address set — guaranteed
// to terminate, hard on squash/replay paths.
func randomLoopProgram(seed int64) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	b := isa.NewBuilder("randloop")
	// Seed registers and a few memory words.
	for r := 1; r <= 6; r++ {
		b.MovI(isa.Reg(r), rng.Int63n(1<<16))
	}
	b.MovI(isa.R10, 0x1000) // memory base
	for w := 0; w < 4; w++ {
		b.Word(uint64(0x1000+8*w), rng.Uint64()%1000)
	}

	outer := rng.Intn(4) + 2
	inner := rng.Intn(4) + 2
	b.MovI(isa.R20, 0) // outer counter
	b.MovI(isa.R21, int64(outer))
	b.Label("outer")
	b.MovI(isa.R22, 0) // inner counter
	b.MovI(isa.R23, int64(inner))
	b.Label("inner")
	// Random body: ALU ops, loads, stores, conditional skips.
	for i := 0; i < 6; i++ {
		switch rng.Intn(5) {
		case 0:
			b.Add(isa.Reg(1+rng.Intn(6)), isa.Reg(1+rng.Intn(6)), isa.Reg(1+rng.Intn(6)))
		case 1:
			b.Mul(isa.Reg(1+rng.Intn(6)), isa.Reg(1+rng.Intn(6)), isa.Reg(1+rng.Intn(6)))
		case 2:
			off := int64(rng.Intn(4)) * 8
			b.Load(isa.Reg(1+rng.Intn(6)), isa.R10, off)
		case 3:
			off := int64(rng.Intn(4)) * 8
			b.Store(isa.R10, off, isa.Reg(1+rng.Intn(6)))
		case 4:
			// Short forward skip over one instruction.
			b.Beq(isa.Reg(1+rng.Intn(6)), isa.Reg(1+rng.Intn(6)), "skip"+itoa(seed, i))
			b.Xor(isa.Reg(1+rng.Intn(6)), isa.Reg(1+rng.Intn(6)), isa.Reg(1+rng.Intn(6)))
			b.Label("skip" + itoa(seed, i))
		}
	}
	b.AddI(isa.R22, isa.R22, 1)
	b.Blt(isa.R22, isa.R23, "inner")
	b.AddI(isa.R20, isa.R20, 1)
	b.Blt(isa.R20, isa.R21, "outer")
	b.Halt()
	return b.MustBuild()
}

func itoa(seed int64, i int) string {
	return string(rune('a'+i)) + string(rune('a'+seed%26))
}

// TestPropertyRandomLoopProgramsMatchInterp extends the golden-model
// equivalence to programs with nested loops, branch squashes and
// store/load aliasing.
func TestPropertyRandomLoopProgramsMatchInterp(t *testing.T) {
	f := func(seed int64) bool {
		prog := randomLoopProgram(seed)
		it := isa.NewInterp(prog)
		if _, err := it.Run(prog); err != nil {
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
		proc, err := m.NewProcess(1, prog, 0)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestTinyROBStillCorrect runs a memory-heavy loop on a pipeline with
// an 8-entry ROB and single-wide stages: structural stalls everywhere,
// same architectural result.
func TestTinyROBStillCorrect(t *testing.T) {
	prog := randomLoopProgram(99)
	it := isa.NewInterp(prog)
	if _, err := it.Run(prog); err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(Config{ROBSize: 8, FetchWidth: 1, IssueWidth: 1, CommitWidth: 1, MemPorts: 1}, nil, nil, nil)
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
	if res.Regs != it.Regs {
		t.Error("tiny-ROB pipeline diverged from golden model")
	}
}

// TestFenceDenseProgram interleaves fences between every instruction:
// full serialization, identical results, and monotone timestamps.
func TestFenceDenseProgram(t *testing.T) {
	b := isa.NewBuilder("fences")
	b.Word(0x1000, 5)
	b.MovI(isa.R1, 0x1000)
	b.Fence()
	b.Load(isa.R2, isa.R1, 0)
	b.Fence()
	b.Rdtsc(isa.R3)
	b.Fence()
	b.AddI(isa.R2, isa.R2, 1)
	b.Fence()
	b.Store(isa.R1, 0, isa.R2)
	b.Fence()
	b.Load(isa.R4, isa.R1, 0)
	b.Fence()
	b.Rdtsc(isa.R5)
	b.Halt()
	prog := b.MustBuild()

	m, err := NewMachine(Config{}, nil, nil, nil)
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
	if res.Regs[isa.R4] != 6 {
		t.Errorf("fenced store/load = %d, want 6", res.Regs[isa.R4])
	}
	if res.Regs[isa.R5] <= res.Regs[isa.R3] {
		t.Error("timestamps not monotone across fences")
	}
}

// TestEffectsPoliciesArchitecturallyTransparent: the speculation-
// effects policies (D-type delay, value recomputation) change only
// cache state timing, never architectural results.
func TestEffectsPoliciesArchitecturallyTransparent(t *testing.T) {
	for _, effects := range []EffectsPolicy{EffectsDelay, EffectsRecompute} {
		for seed := int64(1); seed <= 10; seed++ {
			prog := randomLoopProgram(seed * 7)
			it := isa.NewInterp(prog)
			if _, err := it.Run(prog); err != nil {
				t.Fatal(err)
			}
			lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2})
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(Config{Effects: effects}, nil, lvp, rand.New(rand.NewSource(seed)))
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
			if res.Regs != it.Regs {
				t.Fatalf("%v seed %d: run diverged from golden model", effects, seed)
			}
		}
	}
}

// TestStoreLoadAliasingStress hammers a single cache line with
// interleaved stores and loads at varying offsets; forwarding and
// disambiguation must preserve program order semantics.
func TestStoreLoadAliasingStress(t *testing.T) {
	b := isa.NewBuilder("alias")
	b.MovI(isa.R1, 0x2000)
	b.MovI(isa.R2, 0)
	b.MovI(isa.R3, 50)
	b.Label("loop")
	b.Store(isa.R1, 0, isa.R2) // mem[0] = i
	b.Load(isa.R4, isa.R1, 0)  // forwarded
	b.Store(isa.R1, 8, isa.R4) // mem[8] = i
	b.Load(isa.R5, isa.R1, 8)  // forwarded
	b.Add(isa.R6, isa.R6, isa.R5)
	b.AddI(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, "loop")
	b.Halt()
	prog := b.MustBuild()

	it := isa.NewInterp(prog)
	if _, err := it.Run(prog); err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(Config{}, nil, nil, nil)
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
	// Sum 0..49 = 1225.
	if res.Regs[isa.R6] != 1225 || res.Regs[isa.R6] != it.Regs[isa.R6] {
		t.Errorf("aliasing sum = %d, want 1225", res.Regs[isa.R6])
	}
	if res.Forwards == 0 {
		t.Error("expected store-to-load forwarding in the alias loop")
	}
}

// TestPredictedLoadSquashChains: multiple outstanding predicted loads
// where an older misprediction squashes a younger predicted load
// before its verification.
func TestPredictedLoadSquashChains(t *testing.T) {
	lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(Config{}, nil, lvp, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b := isa.NewBuilder("chain")
	b.Word(0x1000, 1)
	b.Word(0x2000, 2)
	b.MovI(isa.R1, 0x1000)
	b.MovI(isa.R2, 0x2000)
	b.MovI(isa.R14, 1)
	b.MovI(isa.R3, 0)
	b.MovI(isa.R4, 3)
	b.Label("train")
	b.Flush(isa.R1, 0)
	b.Flush(isa.R2, 0)
	b.Fence()
	b.Load(isa.R5, isa.R1, 0) // predicted after training
	b.Load(isa.R6, isa.R2, 0) // predicted after training
	b.Fence()
	b.AddI(isa.R3, isa.R3, 1)
	b.Blt(isa.R3, isa.R4, "train")
	b.Beq(isa.R15, isa.R14, "end")
	b.MovI(isa.R15, 1)
	// Change BOTH values: the older load mispredicts and squashes the
	// younger (also predicted) load mid-verification.
	b.MovI(isa.R7, 11)
	b.Store(isa.R1, 0, isa.R7)
	b.MovI(isa.R7, 22)
	b.Store(isa.R2, 0, isa.R7)
	b.Fence()
	b.MovI(isa.R4, 4)
	b.Jmp("train")
	b.Label("end")
	b.Add(isa.R8, isa.R5, isa.R6)
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
	if res.Regs[isa.R8] != 33 {
		t.Errorf("post-squash sum = %d, want 33", res.Regs[isa.R8])
	}
	if res.VerifyWrong == 0 {
		t.Error("expected at least one misprediction")
	}
}

// TestConflictSeriesRecording sanity-checks the volatile channel's
// observation stream.
func TestConflictSeriesRecording(t *testing.T) {
	b := isa.NewBuilder("burst")
	b.MovI(isa.R1, 7)
	b.Mul(isa.R2, isa.R1, isa.R1) // 3-cycle producer
	for i := 0; i < 12; i++ {
		b.Add(isa.R3, isa.R2, isa.R1) // 12 simultaneous wakeups
	}
	b.Halt()
	prog := b.MustBuild()

	m, err := NewMachine(Config{RecordConflicts: true}, nil, nil, nil)
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
	if res.PortConflicts == 0 {
		t.Fatal("wakeup burst produced no conflicts")
	}
	var sum uint64
	for _, n := range res.ConflictSeries {
		sum += uint64(n)
	}
	if sum != res.PortConflicts {
		t.Errorf("series sums to %d, counter says %d", sum, res.PortConflicts)
	}
	// Without recording, the series stays empty but the counter works.
	m2, _ := NewMachine(Config{}, nil, nil, nil)
	proc2, _ := m2.NewProcess(1, prog, 0)
	res2, err := m2.Run(proc2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.ConflictSeries) != 0 {
		t.Error("series recorded without the flag")
	}
	if res2.PortConflicts == 0 {
		t.Error("counter should work without recording")
	}
}

// TestBimodalBranchPredictor: loop-heavy code runs much faster with
// the bimodal predictor (far fewer squashes), with identical
// architectural results.
func TestBimodalBranchPredictor(t *testing.T) {
	prog := isa.NewBuilder("looper").
		MovI(isa.R1, 0).
		MovI(isa.R2, 0).
		MovI(isa.R3, 500).
		Label("top").
		AddI(isa.R1, isa.R1, 1).
		Add(isa.R2, isa.R2, isa.R1).
		Blt(isa.R1, isa.R3, "top").
		Halt().
		MustBuild()

	run := func(bimodal bool) RunResult {
		m, err := NewMachine(Config{BimodalBranch: bimodal}, nil, nil, nil)
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
		return res
	}
	static := run(false)
	bim := run(true)
	if static.Regs != bim.Regs {
		t.Fatal("bimodal run diverged architecturally")
	}
	if bim.Regs[isa.R2] != 125250 {
		t.Errorf("sum = %d, want 125250", bim.Regs[isa.R2])
	}
	// Static not-taken mispredicts every loop iteration; the bimodal
	// predictor locks onto the taken pattern after warmup.
	if bim.BranchSquash*10 > static.BranchSquash {
		t.Errorf("bimodal squashes %d vs static %d: predictor not learning", bim.BranchSquash, static.BranchSquash)
	}
	if bim.Cycles*2 > static.Cycles {
		t.Errorf("bimodal cycles %d vs static %d: no speedup", bim.Cycles, static.Cycles)
	}
}

// TestBimodalEquivalenceOnRandomPrograms: the branch predictor must
// never change architectural results.
func TestBimodalEquivalenceOnRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		prog := randomLoopProgram(seed * 13)
		it := isa.NewInterp(prog)
		if _, err := it.Run(prog); err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(Config{BimodalBranch: true}, nil, nil, rand.New(rand.NewSource(seed)))
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
		if res.Regs != it.Regs {
			t.Fatalf("seed %d: bimodal pipeline diverged", seed)
		}
	}
}

// TestPipelineTracer records a predicted-then-mispredicted load and
// checks the event stream tells the story in order: fetch, issue,
// predict, writeback, verify-wrong, squash of the dependent.
func TestPipelineTracer(t *testing.T) {
	lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(Config{}, nil, lvp, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	m.Events = rec.Record

	b := isa.NewBuilder("traced")
	b.Word(0x1000, 5)
	b.MovI(isa.R1, 0x1000)
	b.MovI(isa.R14, 1)
	b.MovI(isa.R3, 0)
	b.MovI(isa.R4, 3)
	b.Label("loop")
	b.Flush(isa.R1, 0)
	b.Fence()
	b.Load(isa.R2, isa.R1, 0)
	b.Add(isa.R5, isa.R2, isa.R2) // dependent
	b.Fence()
	b.AddI(isa.R3, isa.R3, 1)
	b.Blt(isa.R3, isa.R4, "loop")
	b.Beq(isa.R15, isa.R14, "end")
	b.MovI(isa.R15, 1)
	b.MovI(isa.R6, 9)
	b.Store(isa.R1, 0, isa.R6) // change the value -> mispredict next time
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
		t.Fatal("expected a misprediction")
	}

	var sawPredict, sawWrong, sawCorrect, sawSquash bool
	kinds := map[trace.Kind]int{}
	for _, ev := range rec.Events() {
		kinds[ev.Kind]++
		switch ev.Kind {
		case trace.Predict:
			sawPredict = true
		case trace.Verify:
			if ev.Correct {
				sawCorrect = true
			} else {
				sawWrong = true
			}
		case trace.Squash:
			sawSquash = true
		}
	}
	if !sawPredict || !sawWrong || !sawCorrect || !sawSquash {
		t.Errorf("event coverage: predict=%v wrong=%v correct=%v squash=%v",
			sawPredict, sawWrong, sawCorrect, sawSquash)
	}
	// Commits never exceed fetches; retired count matches commits.
	if kinds[trace.Commit] != int(res.Retired) {
		t.Errorf("commit events %d != retired %d", kinds[trace.Commit], res.Retired)
	}
	if kinds[trace.Fetch] < kinds[trace.Commit] {
		t.Error("fewer fetches than commits")
	}
	out := rec.RenderPipeline(0, 40)
	if out == "" {
		t.Error("empty render")
	}
}

// TestAccessEvents: the memory accesses on the event stream carry the
// stage, physical address and serving level the memory-system views
// (vpsim -memtrace) print. A flush reports its issue and its commit; a
// reload of a line a still-speculative load fetched is served by the
// L1 when fills are immediate and by the shadow buffer under
// recomputation.
func TestAccessEvents(t *testing.T) {
	prog := isa.NewBuilder("reload").
		Word(0x1000, 7).
		MovI(isa.R1, 0x1000).
		Flush(isa.R1, 0).
		Fence().
		Load(isa.R2, isa.R1, 0).
		Load(isa.R3, isa.R1, 0).
		Halt().
		MustBuild()
	type access struct {
		stage trace.Kind
		op    isa.Op
		level mem.Level
	}
	for _, tc := range []struct {
		effects EffectsPolicy
		reload  mem.Level
	}{{EffectsImmediate, mem.LevelL1}, {EffectsRecompute, mem.LevelShadow}} {
		m, err := NewMachine(Config{Effects: tc.effects}, nil, nil, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		var got []access
		m.Events = func(ev trace.Event) {
			if ev.Kind != trace.Access {
				return
			}
			if ev.PAddr != 0x40000+0x1000 {
				t.Errorf("%v: access %+v at paddr %#x, want the process's 0x1000", tc.effects, ev, ev.PAddr)
			}
			got = append(got, access{ev.Stage, ev.Instr.Op, ev.Level})
		}
		proc, err := m.NewProcess(1, prog, 0x40000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(proc); err != nil {
			t.Fatal(err)
		}
		want := []access{
			{trace.Issue, isa.FLUSH, 0},
			{trace.Commit, isa.FLUSH, 0},
			{trace.Issue, isa.LOAD, mem.LevelMem},
			{trace.Issue, isa.LOAD, tc.reload},
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: accesses %+v, want %+v", tc.effects, got, want)
		}
	}
}

// TestMSHRLimitSerializesMisses: with a single MSHR, two independent
// miss loads cannot overlap; with the default pool they do.
func TestMSHRLimitSerializesMisses(t *testing.T) {
	prog := isa.NewBuilder("mlp").
		MovI(isa.R1, 0x10000).
		MovI(isa.R2, 0x20000).
		Rdtsc(isa.R10).
		Load(isa.R3, isa.R1, 0). // independent miss A
		Load(isa.R4, isa.R2, 0). // independent miss B
		Fence().
		Rdtsc(isa.R11).
		Halt().
		MustBuild()
	run := func(mshrs int) uint64 {
		m, err := NewMachine(Config{MSHRs: mshrs}, nil, nil, nil)
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
		return res.Regs[isa.R11] - res.Regs[isa.R10]
	}
	parallel := run(8)
	serial := run(1)
	// One DRAM miss is ~162 cycles: overlapped ≈ 165, serialized ≈ 325.
	if serial < parallel+100 {
		t.Errorf("MSHR=1 did not serialize: parallel %d, serial %d", parallel, serial)
	}
	if _, err := NewMachine(Config{MSHRs: -1}, nil, nil, nil); err == nil {
		t.Error("negative MSHRs should fail validation")
	}
}

// TestPipelineCallReturn: JAL/JALR subroutines produce the same
// results as the golden model, including nested calls via a memory
// stack.
func TestPipelineCallReturn(t *testing.T) {
	b := isa.NewBuilder("calls")
	b.MovI(isa.R30, 0x9000) // stack pointer
	b.MovI(isa.R1, 3)
	b.Jal(isa.R31, "square_plus_one")
	b.Mov(isa.R2, isa.R1) // 10
	b.MovI(isa.R1, 10)
	b.Jal(isa.R31, "square_plus_one")
	b.Mov(isa.R3, isa.R1) // 101
	b.Halt()
	b.Label("square_plus_one")
	// Push the link, call square, pop, add one, return.
	b.Store(isa.R30, 0, isa.R31)
	b.AddI(isa.R30, isa.R30, 8)
	b.Jal(isa.R31, "square")
	b.AddI(isa.R30, isa.R30, -8)
	b.Load(isa.R31, isa.R30, 0)
	b.AddI(isa.R1, isa.R1, 1)
	b.Jalr(isa.R0, isa.R31)
	b.Label("square")
	b.Mul(isa.R1, isa.R1, isa.R1)
	b.Jalr(isa.R0, isa.R31)
	prog := b.MustBuild()

	it := isa.NewInterp(prog)
	if _, err := it.Run(prog); err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(Config{}, nil, nil, nil)
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
	if res.Regs != it.Regs {
		t.Fatal("call/return pipeline diverged from golden model")
	}
	if res.Regs[isa.R2] != 10 || res.Regs[isa.R3] != 101 {
		t.Errorf("r2=%d r3=%d, want 10 101", res.Regs[isa.R2], res.Regs[isa.R3])
	}
}

// TestSelectiveReplayEquivalence: the alternative recovery mode must
// be architecturally invisible.
func TestSelectiveReplayEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		prog := randomLoopProgram(seed * 17)
		it := isa.NewInterp(prog)
		if _, err := it.Run(prog); err != nil {
			t.Fatal(err)
		}
		lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(Config{SelectiveReplay: true}, nil, lvp, rand.New(rand.NewSource(seed)))
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
		if res.Regs != it.Regs {
			t.Fatalf("seed %d: selective replay diverged", seed)
		}
		for a, v := range it.Mem {
			if m.Hier.Mem.Peek(a) != v {
				t.Fatalf("seed %d: memory diverged at %#x", seed, a)
			}
		}
	}
}

// TestSelectiveReplayCheaperThanSquash: a misprediction under
// selective replay costs less than a full pipeline squash, and the
// architectural result is identical.
func TestSelectiveReplayCheaperThanSquash(t *testing.T) {
	build := func() *isa.Program {
		b := isa.NewBuilder("replay-cost")
		b.Word(0x1000, 5)
		b.MovI(isa.R1, 0x1000)
		b.MovI(isa.R14, 1)
		b.MovI(isa.R3, 0)
		b.MovI(isa.R4, 3)
		b.Label("loop")
		b.Flush(isa.R1, 0)
		b.Fence()
		b.Rdtsc(isa.R20)
		b.Load(isa.R2, isa.R1, 0)
		b.Add(isa.R5, isa.R2, isa.R2)
		// Plenty of independent work that a full squash would discard
		// but selective replay preserves.
		for i := 0; i < 12; i++ {
			b.AddI(isa.R7, isa.R7, 1)
		}
		b.Fence()
		b.Rdtsc(isa.R21)
		b.Sub(isa.R22, isa.R21, isa.R20)
		b.MovI(isa.R10, 0x8000)
		b.ShlI(isa.R11, isa.R3, 3)
		b.Add(isa.R12, isa.R10, isa.R11)
		b.Store(isa.R12, 0, isa.R22)
		b.AddI(isa.R3, isa.R3, 1)
		b.Blt(isa.R3, isa.R4, "loop")
		b.Beq(isa.R15, isa.R14, "end")
		b.MovI(isa.R15, 1)
		b.MovI(isa.R6, 9)
		b.Store(isa.R1, 0, isa.R6)
		b.Fence()
		b.MovI(isa.R4, 4)
		b.Jmp("loop")
		b.Label("end")
		b.Halt()
		return b.MustBuild()
	}
	run := func(selective bool) (uint64, uint64) {
		lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(Config{SelectiveReplay: selective}, nil, lvp, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		proc, err := m.NewProcess(1, build(), 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(proc)
		if err != nil {
			t.Fatal(err)
		}
		if res.VerifyWrong == 0 {
			t.Fatal("no misprediction in the cost probe")
		}
		// The mispredicted (4th) iteration's latency.
		return m.Hier.Mem.Peek(0x8000 + 24), res.Regs[isa.R6]
	}
	squashCost, r6a := run(false)
	replayCost, r6b := run(true)
	if r6a != r6b || r6a != 9 {
		t.Errorf("architectural divergence: r6 = %d vs %d, want 9", r6a, r6b)
	}
	if replayCost >= squashCost {
		t.Errorf("selective replay (%d cycles) should beat full squash (%d)", replayCost, squashCost)
	}
}
