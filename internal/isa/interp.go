package isa

import "fmt"

// Interp is the in-order reference interpreter. It defines the
// architectural semantics of the ISA and is the golden model against
// which the out-of-order pipeline in internal/cpu is validated: any
// program must leave identical registers and memory on both, and the
// differential oracle (internal/oracle) also compares their commit
// logs record for record. FLUSH and FENCE are architectural no-ops
// here; RDTSC reads Cycle.
//
// It is also the one in-order stepper the rest of the tree builds on:
// the oracle records its retire stream, internal/locality audits its
// load values, and internal/cachebench charges cache latencies to its
// clock — each through OnRetire.
type Interp struct {
	Regs  [NumRegs]uint64
	Mem   map[uint64]uint64
	Steps uint64 // retired instruction count

	// Cycle is the clock RDTSC reads. Run adds one per instruction and
	// OnRetire may add latency to it; with no hook adding latency,
	// Cycle == Steps.
	Cycle uint64

	// OnRetire, when non-nil, runs after each retired instruction
	// (HALT included) and before the next one, with that instruction's
	// commit record. A non-nil error stops Run, which returns it.
	OnRetire func(Commit) error
}

// Commit describes one architecturally retired instruction: the
// canonical record the differential oracle (internal/oracle) compares
// between the pipeline in internal/cpu and this reference interpreter.
// Addresses are virtual, so logs from processes at different physical
// bases compare equal. Timing never appears in a Commit — two machines
// with different caches, predictors and latencies must produce
// identical logs for the same program.
type Commit struct {
	PC        int    // instruction index of the retired instruction
	Op        Op     // opcode
	WritesReg bool   // an architectural register was written (Dst != R0)
	Dst       Reg    // destination register, when WritesReg
	Value     uint64 // value written to Dst, when WritesReg
	Addr      uint64 // virtual data address (LOAD, STORE, FLUSH)
	StoreVal  uint64 // value stored (STORE)
	NextPC    int    // instruction index execution continues at
}

// String renders the commit in the canonical one-line log format used
// by the golden commit-log tests (byte-for-byte comparable).
func (c Commit) String() string {
	s := fmt.Sprintf("pc=%d %s", c.PC, c.Op)
	if c.WritesReg {
		s += fmt.Sprintf(" %s=%#x", c.Dst, c.Value)
	}
	switch c.Op {
	case LOAD, FLUSH:
		s += fmt.Sprintf(" [%#x]", c.Addr)
	case STORE:
		s += fmt.Sprintf(" [%#x]=%#x", c.Addr, c.StoreVal)
	}
	return s + fmt.Sprintf(" next=%d", c.NextPC)
}

// NewInterp returns an interpreter with the program's initial data
// loaded.
func NewInterp(p *Program) *Interp {
	it := &Interp{}
	it.Reset(p)
	return it
}

// Reset returns the interpreter to p's initial state: zero registers,
// counters and clock, and memory holding only p's data. The memory map
// is reused, and OnRetire is kept.
func (it *Interp) Reset(p *Program) {
	it.Regs = [NumRegs]uint64{}
	it.Steps, it.Cycle = 0, 0
	if it.Mem == nil {
		it.Mem = make(map[uint64]uint64, len(p.Data))
	} else {
		clear(it.Mem)
	}
	for a, v := range p.Data {
		it.Mem[a] = v
	}
}

// MaxSteps bounds Run to protect against non-terminating programs.
const MaxSteps = 50_000_000

// Run executes p until HALT, returning the number of retired
// instructions. Each instruction reads its sources before it writes
// its destination, so "jalr r5, r5" jumps to the old r5.
func (it *Interp) Run(p *Program) (uint64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	pc := 0
	for it.Steps < MaxSteps {
		if pc < 0 || pc >= len(p.Code) {
			return it.Steps, fmt.Errorf("isa: pc %d out of range in %q", pc, p.Name)
		}
		in := p.Code[pc]
		it.Steps++
		it.Cycle++
		c := Commit{PC: pc, Op: in.Op, NextPC: pc + 1}
		a, b := it.Regs[in.Src1], it.Regs[in.Src2]
		var v uint64
		switch in.Op {
		case NOP, FENCE, HALT:
			// no architectural effect
		case MOVI:
			v = uint64(in.Imm)
		case MOV:
			v = a
		case ADD:
			v = a + b
		case SUB:
			v = a - b
		case MUL:
			v = a * b
		case MULHU:
			v, _ = mul128(a, b)
		case DIVU:
			if b == 0 {
				v = ^uint64(0)
			} else {
				v = a / b
			}
		case REMU:
			if b == 0 {
				v = a
			} else {
				v = a % b
			}
		case AND:
			v = a & b
		case OR:
			v = a | b
		case XOR:
			v = a ^ b
		case SLTU:
			if a < b {
				v = 1
			}
		case ADDI:
			v = a + uint64(in.Imm)
		case ANDI:
			v = a & uint64(in.Imm)
		case SHLI:
			v = a << (uint64(in.Imm) & 63)
		case SHRI:
			v = a >> (uint64(in.Imm) & 63)
		case LOAD:
			c.Addr = a + uint64(in.Imm)
			v = it.Mem[c.Addr]
		case STORE:
			c.Addr, c.StoreVal = a+uint64(in.Imm), b
			it.Mem[c.Addr] = b
		case FLUSH:
			c.Addr = a + uint64(in.Imm)
		case RDTSC:
			v = it.Cycle
		case BEQ:
			if a == b {
				c.NextPC = in.Target
			}
		case BNE:
			if a != b {
				c.NextPC = in.Target
			}
		case BLT:
			if int64(a) < int64(b) {
				c.NextPC = in.Target
			}
		case BGE:
			if int64(a) >= int64(b) {
				c.NextPC = in.Target
			}
		case JMP:
			c.NextPC = in.Target
		case JAL:
			v = uint64(pc + 1)
			c.NextPC = in.Target
		case JALR:
			v = uint64(pc + 1)
			c.NextPC = int(a)
		default:
			return it.Steps, fmt.Errorf("isa: unimplemented op %v", in.Op)
		}
		if in.Op.WritesDst() && in.Dst != R0 {
			it.Regs[in.Dst] = v
			c.WritesReg, c.Dst, c.Value = true, in.Dst, v
		}
		if it.OnRetire != nil {
			if err := it.OnRetire(c); err != nil {
				return it.Steps, err
			}
		}
		if in.Op == HALT {
			return it.Steps, nil
		}
		pc = c.NextPC
	}
	return it.Steps, fmt.Errorf("isa: program %q exceeded %d steps", p.Name, MaxSteps)
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	carry := t >> 32
	t = aHi*bLo + carry
	mid1 := t & mask
	hi1 := t >> 32
	t = aLo*bHi + mid1
	mid2 := t & mask
	hi2 := t >> 32
	hi = aHi*bHi + hi1 + hi2
	lo |= mid2 << 32
	return hi, lo
}

// Mul128 exposes the widening multiply for reuse (the pipeline's MULHU
// unit shares these semantics).
func Mul128(a, b uint64) (hi, lo uint64) { return mul128(a, b) }
