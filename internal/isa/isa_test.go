package isa

import (
	"errors"
	"math/bits"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStringAndPredicates(t *testing.T) {
	if LOAD.String() != "load" || HALT.String() != "halt" {
		t.Errorf("op names wrong: %v %v", LOAD, HALT)
	}
	if !BEQ.IsBranch() || !JMP.IsBranch() || ADD.IsBranch() {
		t.Error("IsBranch misclassifies")
	}
	if !LOAD.IsMem() || !FLUSH.IsMem() || ADD.IsMem() {
		t.Error("IsMem misclassifies")
	}
	if !LOAD.WritesDst() || STORE.WritesDst() || FLUSH.WritesDst() {
		t.Error("WritesDst misclassifies")
	}
	if !STORE.ReadsSrc1() || !STORE.ReadsSrc2() || MOVI.ReadsSrc1() {
		t.Error("Reads* misclassifies")
	}
	if Op(200).Valid() {
		t.Error("invalid op reported valid")
	}
	if !strings.Contains(Op(200).String(), "200") {
		t.Error("invalid op string")
	}
}

func TestRegValid(t *testing.T) {
	if !R31.Valid() || Reg(32).Valid() {
		t.Error("Reg.Valid wrong")
	}
	if R5.String() != "r5" {
		t.Errorf("R5 = %q", R5.String())
	}
}

func TestBuilderBasicProgram(t *testing.T) {
	p, err := NewBuilder("t").
		MovI(R1, 10).
		MovI(R2, 0).
		Label("loop").
		AddI(R2, R2, 1).
		Bne(R2, R1, "loop").
		Halt().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	it := NewInterp(p)
	if _, err := it.Run(p); err != nil {
		t.Fatal(err)
	}
	if it.Regs[R2] != 10 {
		t.Errorf("r2 = %d, want 10", it.Regs[R2])
	}
}

func TestBuilderForwardLabel(t *testing.T) {
	p, err := NewBuilder("fwd").
		MovI(R1, 1).
		Jmp("end").
		MovI(R1, 99). // skipped
		Label("end").
		Halt().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	it := NewInterp(p)
	if _, err := it.Run(p); err != nil {
		t.Fatal(err)
	}
	if it.Regs[R1] != 1 {
		t.Errorf("r1 = %d, want 1 (jump not taken?)", it.Regs[R1])
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("u").Jmp("nowhere").Halt().Build(); err == nil {
		t.Error("undefined label should fail")
	}
	if _, err := NewBuilder("d").Label("a").Label("a").Halt().Build(); err == nil {
		t.Error("duplicate label should fail")
	}
	if _, err := NewBuilder("nohalt").Nop().Build(); err == nil {
		t.Error("missing halt should fail")
	}
	if _, err := NewBuilder("empty").Build(); err == nil {
		t.Error("empty program should fail")
	}
	b := NewBuilder("pad").Nop().Nop()
	if _, err := b.PadTo(1).Halt().Build(); err == nil {
		t.Error("backwards PadTo should fail")
	}
}

func TestBuilderPadTo(t *testing.T) {
	b := NewBuilder("pad")
	b.MovI(R1, 1)
	b.PadTo(5)
	b.Load(R2, R1, 0)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[5].Op != LOAD {
		t.Errorf("instr at 5 = %v, want load", p.Code[5])
	}
	for i := 1; i < 5; i++ {
		if p.Code[i].Op != NOP {
			t.Errorf("instr at %d = %v, want nop", i, p.Code[i])
		}
	}
}

func TestValidateBranchTarget(t *testing.T) {
	p := NewProgram("bad")
	p.Code = []Instr{{Op: JMP, Target: 7}, {Op: HALT}}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range target should fail validation")
	}
	p.Code[0].Target = 1
	if err := p.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
}

func TestInterpALUOps(t *testing.T) {
	p := NewBuilder("alu").
		MovI(R1, 7).
		MovI(R2, 3).
		Add(R3, R1, R2).   // 10
		Sub(R4, R1, R2).   // 4
		Mul(R5, R1, R2).   // 21
		DivU(R6, R1, R2).  // 2
		RemU(R7, R1, R2).  // 1
		And(R8, R1, R2).   // 3
		Or(R9, R1, R2).    // 7
		Xor(R10, R1, R2).  // 4
		SltU(R16, R2, R1). // 1 (3 < 7)
		SltU(R17, R1, R2). // 0
		AddI(R11, R1, -2). // 5
		AndI(R12, R1, 1).  // 1
		ShlI(R13, R1, 2).  // 28
		ShrI(R14, R1, 1).  // 3
		Mov(R15, R1).      // 7
		Halt().
		MustBuild()
	it := NewInterp(p)
	if _, err := it.Run(p); err != nil {
		t.Fatal(err)
	}
	want := map[Reg]uint64{
		R3: 10, R4: 4, R5: 21, R6: 2, R7: 1, R8: 3, R9: 7,
		R10: 4, R11: 5, R12: 1, R13: 28, R14: 3, R15: 7,
		R16: 1, R17: 0,
	}
	for r, w := range want {
		if it.Regs[r] != w {
			t.Errorf("%v = %d, want %d", r, it.Regs[r], w)
		}
	}
}

func TestInterpDivByZero(t *testing.T) {
	p := NewBuilder("dz").
		MovI(R1, 42).
		DivU(R2, R1, R0).
		RemU(R3, R1, R0).
		Halt().
		MustBuild()
	it := NewInterp(p)
	if _, err := it.Run(p); err != nil {
		t.Fatal(err)
	}
	if it.Regs[R2] != ^uint64(0) {
		t.Errorf("div by zero = %x, want all-ones", it.Regs[R2])
	}
	if it.Regs[R3] != 42 {
		t.Errorf("rem by zero = %d, want dividend", it.Regs[R3])
	}
}

func TestInterpR0Hardwired(t *testing.T) {
	p := NewBuilder("r0").
		MovI(R0, 77).
		Mov(R1, R0).
		Halt().
		MustBuild()
	it := NewInterp(p)
	if _, err := it.Run(p); err != nil {
		t.Fatal(err)
	}
	if it.Regs[R0] != 0 || it.Regs[R1] != 0 {
		t.Errorf("r0 = %d r1 = %d, want 0 0", it.Regs[R0], it.Regs[R1])
	}
}

func TestInterpMemory(t *testing.T) {
	p := NewBuilder("mem").
		Word(0x1000, 0xdeadbeef).
		MovI(R1, 0x1000).
		Load(R2, R1, 0).
		AddI(R3, R2, 1).
		Store(R1, 8, R3).
		Load(R4, R1, 8).
		Flush(R1, 0). // architecturally a no-op
		Fence().
		Halt().
		MustBuild()
	it := NewInterp(p)
	if _, err := it.Run(p); err != nil {
		t.Fatal(err)
	}
	if it.Regs[R2] != 0xdeadbeef {
		t.Errorf("load = %x", it.Regs[R2])
	}
	if it.Regs[R4] != 0xdeadbef0 {
		t.Errorf("store/load = %x", it.Regs[R4])
	}
}

func TestInterpBranches(t *testing.T) {
	// Compute sum of 1..5 with BLT loop, then test BGE and BEQ paths.
	p := NewBuilder("br").
		MovI(R1, 0). // i
		MovI(R2, 0). // sum
		MovI(R3, 5).
		Label("loop").
		AddI(R1, R1, 1).
		Add(R2, R2, R1).
		Blt(R1, R3, "loop").
		Bge(R1, R3, "ok").
		MovI(R4, 111). // skipped
		Label("ok").
		Beq(R1, R3, "done").
		MovI(R5, 222). // skipped
		Label("done").
		Halt().
		MustBuild()
	it := NewInterp(p)
	if _, err := it.Run(p); err != nil {
		t.Fatal(err)
	}
	if it.Regs[R2] != 15 {
		t.Errorf("sum = %d, want 15", it.Regs[R2])
	}
	if it.Regs[R4] != 0 || it.Regs[R5] != 0 {
		t.Errorf("branch fallthrough executed: r4=%d r5=%d", it.Regs[R4], it.Regs[R5])
	}
}

func TestInterpRdtscMonotone(t *testing.T) {
	p := NewBuilder("ts").
		Rdtsc(R1).
		Nop().Nop().
		Rdtsc(R2).
		Halt().
		MustBuild()
	it := NewInterp(p)
	if _, err := it.Run(p); err != nil {
		t.Fatal(err)
	}
	if it.Regs[R2] <= it.Regs[R1] {
		t.Errorf("rdtsc not monotone: %d then %d", it.Regs[R1], it.Regs[R2])
	}
}

func TestInterpInfiniteLoopBounded(t *testing.T) {
	p := NewProgram("inf")
	p.Code = []Instr{{Op: JMP, Target: 0}, {Op: HALT}}
	it := NewInterp(p)
	if _, err := it.Run(p); err == nil {
		t.Error("expected step-bound error")
	}
}

func TestMul128AgainstBits(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := Mul128(a, b)
		whi, wlo := bits.Mul64(a, b)
		return hi == whi && lo == wlo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: NOP}, "nop"},
		{Instr{Op: MOVI, Dst: R1, Imm: 5}, "movi r1, 5"},
		{Instr{Op: ADD, Dst: R1, Src1: R2, Src2: R3}, "add r1, r2, r3"},
		{Instr{Op: LOAD, Dst: R1, Src1: R2, Imm: 8}, "load r1, [r2+8]"},
		{Instr{Op: STORE, Src1: R2, Imm: 8, Src2: R3}, "store [r2+8], r3"},
		{Instr{Op: FLUSH, Src1: R2}, "flush [r2+0]"},
		{Instr{Op: BEQ, Src1: R1, Src2: R2, Target: 3}, "beq r1, r2, @3"},
		{Instr{Op: JMP, Target: 9}, "jmp @9"},
		{Instr{Op: RDTSC, Dst: R7}, "rdtsc r7"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestDisassemble(t *testing.T) {
	p := NewBuilder("d").Nop().Halt().MustBuild()
	d := p.Disassemble()
	if !strings.Contains(d, "0: nop") || !strings.Contains(d, "1: halt") {
		t.Errorf("disassembly = %q", d)
	}
}

// Property: the interpreter computes the same ALU results as Go for
// random operand pairs across every three-operand op.
func TestPropertyALUMatchesGo(t *testing.T) {
	ops := []struct {
		op Op
		fn func(a, b uint64) uint64
	}{
		{ADD, func(a, b uint64) uint64 { return a + b }},
		{SUB, func(a, b uint64) uint64 { return a - b }},
		{MUL, func(a, b uint64) uint64 { return a * b }},
		{AND, func(a, b uint64) uint64 { return a & b }},
		{OR, func(a, b uint64) uint64 { return a | b }},
		{XOR, func(a, b uint64) uint64 { return a ^ b }},
		{SLTU, func(a, b uint64) uint64 {
			if a < b {
				return 1
			}
			return 0
		}},
		{MULHU, func(a, b uint64) uint64 { h, _ := bits.Mul64(a, b); return h }},
		{DIVU, func(a, b uint64) uint64 {
			if b == 0 {
				return ^uint64(0)
			}
			return a / b
		}},
		{REMU, func(a, b uint64) uint64 {
			if b == 0 {
				return a
			}
			return a % b
		}},
	}
	for _, c := range ops {
		c := c
		f := func(a, b uint64) bool {
			p := NewProgram("prop")
			p.Code = []Instr{
				{Op: MOVI, Dst: R1, Imm: int64(a)},
				{Op: MOVI, Dst: R2, Imm: int64(b)},
				{Op: c.op, Dst: R3, Src1: R1, Src2: R2},
				{Op: HALT},
			}
			it := NewInterp(p)
			if _, err := it.Run(p); err != nil {
				return false
			}
			return it.Regs[R3] == c.fn(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%v: %v", c.op, err)
		}
	}
}

func TestInterpCallReturn(t *testing.T) {
	// A call/return pair with a memory stack: main calls double(r1)
	// twice through JAL/JALR.
	b := NewBuilder("callret")
	b.MovI(R30, 0x9000) // stack pointer
	b.MovI(R1, 5)
	b.Jal(R31, "double")
	b.Mov(R2, R1) // 10
	b.MovI(R1, 7)
	b.Jal(R31, "double")
	b.Mov(R3, R1) // 14
	b.Halt()
	b.Label("double")
	b.Add(R1, R1, R1)
	b.Jalr(R0, R31) // return
	p := b.MustBuild()

	it := NewInterp(p)
	if _, err := it.Run(p); err != nil {
		t.Fatal(err)
	}
	if it.Regs[R2] != 10 || it.Regs[R3] != 14 {
		t.Errorf("r2=%d r3=%d, want 10 14", it.Regs[R2], it.Regs[R3])
	}
}

func TestInterpJalrOutOfRange(t *testing.T) {
	b := NewBuilder("wild")
	b.MovI(R1, 999)
	b.Jalr(R0, R1)
	b.Halt()
	p := b.MustBuild()
	it := NewInterp(p)
	if _, err := it.Run(p); err == nil {
		t.Error("wild indirect jump should error")
	}
}

// TestInterpJalrSelfLink: "jalr r5, r5" reads its target before it
// writes the link, so it jumps to the old r5 and links pc+1 — the
// order the pipeline uses.
func TestInterpJalrSelfLink(t *testing.T) {
	b := NewBuilder("jalr-self")
	b.MovI(R5, 3)
	b.Jalr(R5, R5) // pc 1: goto 3, r5 = 2
	b.MovI(R6, 1)  // skipped
	b.Halt()
	p := b.MustBuild()
	it := NewInterp(p)
	steps, err := it.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 3 || it.Regs[R5] != 2 || it.Regs[R6] != 0 {
		t.Errorf("steps=%d r5=%d r6=%d, want 3 2 0", steps, it.Regs[R5], it.Regs[R6])
	}
}

// TestInterpOnRetire: the hook sees every retired instruction in order,
// HALT included, with its commit record; latency it adds to Cycle is
// what RDTSC reads; and an error it returns stops Run.
func TestInterpOnRetire(t *testing.T) {
	p := NewBuilder("hook").
		Word(0x100, 7).
		MovI(R1, 0x100).
		Load(R0, R1, 0).
		Rdtsc(R2).
		Store(R1, 8, R2).
		Halt().
		MustBuild()
	it := NewInterp(p)
	var got []string
	it.OnRetire = func(c Commit) error {
		got = append(got, c.String())
		if c.Op == LOAD {
			it.Cycle += 100
		}
		return nil
	}
	if _, err := it.Run(p); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"pc=0 movi r1=0x100 next=1",
		"pc=1 load [0x100] next=2",
		"pc=2 rdtsc r2=0x67 next=3",
		"pc=3 store [0x108]=0x67 next=4",
		"pc=4 halt next=5",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("retire stream:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if it.Steps != 5 || it.Cycle != 105 {
		t.Errorf("steps=%d cycle=%d, want 5 105", it.Steps, it.Cycle)
	}

	stop := errors.New("stop")
	it.Reset(p)
	it.OnRetire = func(c Commit) error {
		if c.Op == LOAD {
			return stop
		}
		return nil
	}
	if steps, err := it.Run(p); err != stop || steps != 2 {
		t.Errorf("Run = %d, %v; want 2, the hook's error", steps, err)
	}
}

// TestInterpReset: Reset restores the program's initial state in place
// and keeps the hook, so a reused interpreter reruns identically.
func TestInterpReset(t *testing.T) {
	p := NewBuilder("reset").
		Word(0x100, 7).
		MovI(R1, 0x100).
		Load(R2, R1, 0).
		AddI(R2, R2, 1).
		Store(R1, 0, R2).
		Store(R1, 8, R2).
		Halt().
		MustBuild()
	it := NewInterp(p)
	retired := 0
	it.OnRetire = func(Commit) error { retired++; return nil }
	for run := 0; run < 2; run++ {
		it.Reset(p)
		if _, err := it.Run(p); err != nil {
			t.Fatal(err)
		}
		if it.Regs[R2] != 8 || it.Mem[0x100] != 8 || len(it.Mem) != 2 {
			t.Errorf("run %d: r2=%d mem=%v, want 8 and two words", run, it.Regs[R2], it.Mem)
		}
		if it.Steps != 6 || it.Cycle != 6 {
			t.Errorf("run %d: steps=%d cycle=%d, want 6 6", run, it.Steps, it.Cycle)
		}
	}
	if retired != 12 {
		t.Errorf("hook saw %d retirements over two runs, want 12", retired)
	}
}
