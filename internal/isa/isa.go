// Package isa defines the small load/store instruction set executed by
// the simulator. The proof-of-concept attack programs in the paper
// (Figs. 3, 4 and 6) use only memory accesses, cache flushes, fences,
// timestamp reads, ALU operations and branches; this ISA provides
// exactly those primitives plus the widening multiply and unsigned
// divide needed by the multiprecision RSA victim.
//
// Register R0 is hardwired to zero, as in MIPS/RISC-V; writes to it
// are discarded.
package isa

import (
	"fmt"
	"sort"
)

// Reg names an architectural register, R0..R31.
type Reg uint8

// NumRegs is the architectural register count.
const NumRegs = 32

// Register names. R0 reads as zero.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31
)

// String renders the register in assembly syntax ("r5").
func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// Op is an opcode.
type Op uint8

// Opcodes.
const (
	NOP Op = iota
	HALT
	MOVI  // dst = imm
	MOV   // dst = src1
	ADD   // dst = src1 + src2
	SUB   // dst = src1 - src2
	MUL   // dst = low64(src1 * src2)
	MULHU // dst = high64(src1 * src2), unsigned
	DIVU  // dst = src1 / src2 (unsigned; all-ones if src2 == 0)
	REMU  // dst = src1 % src2 (unsigned; src1 if src2 == 0)
	AND   // dst = src1 & src2
	OR    // dst = src1 | src2
	XOR   // dst = src1 ^ src2
	SLTU  // dst = 1 if src1 < src2 (unsigned), else 0
	ADDI  // dst = src1 + imm
	ANDI  // dst = src1 & imm
	SHLI  // dst = src1 << imm
	SHRI  // dst = src1 >> imm (logical)
	LOAD  // dst = mem64[src1 + imm]
	STORE // mem64[src1 + imm] = src2
	FLUSH // evict cache line containing (src1 + imm)
	FENCE // drain: all older instructions complete before younger issue
	RDTSC // dst = current cycle count (serializing like rdtscp)
	BEQ   // if src1 == src2 goto Target
	BNE   // if src1 != src2 goto Target
	BLT   // if int64(src1) < int64(src2) goto Target
	BGE   // if int64(src1) >= int64(src2) goto Target
	JMP   // goto Target
	JAL   // dst = pc+1 (link); goto Target — call
	JALR  // dst = pc+1; goto src1 (instruction index), read before dst is written — indirect call/return
	numOps
)

var opNames = [...]string{
	NOP: "nop", HALT: "halt", MOVI: "movi", MOV: "mov",
	ADD: "add", SUB: "sub", MUL: "mul", MULHU: "mulhu",
	DIVU: "divu", REMU: "remu", AND: "and", OR: "or", XOR: "xor",
	SLTU: "sltu", ADDI: "addi", ANDI: "andi", SHLI: "shli", SHRI: "shri",
	LOAD: "load", STORE: "store", FLUSH: "flush", FENCE: "fence",
	RDTSC: "rdtsc", BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge",
	JMP: "jmp", JAL: "jal", JALR: "jalr",
}

// String returns the opcode's assembly mnemonic, or "op(N)" for an
// undefined opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// IsBranch reports whether o is a control-flow instruction.
// IsBranch covers control flow with a static target (JALR's target is
// a register value and is validated dynamically).
func (o Op) IsBranch() bool {
	switch o {
	case BEQ, BNE, BLT, BGE, JMP, JAL:
		return true
	}
	return false
}

// IsMem reports whether o touches the data memory hierarchy.
func (o Op) IsMem() bool {
	switch o {
	case LOAD, STORE, FLUSH:
		return true
	}
	return false
}

// WritesDst reports whether o produces a register result.
func (o Op) WritesDst() bool {
	switch o {
	case MOVI, MOV, ADD, SUB, MUL, MULHU, DIVU, REMU, AND, OR, XOR,
		SLTU, ADDI, ANDI, SHLI, SHRI, LOAD, RDTSC, JAL, JALR:
		return true
	}
	return false
}

// ReadsSrc1 reports whether o reads Src1.
func (o Op) ReadsSrc1() bool {
	switch o {
	case MOV, ADD, SUB, MUL, MULHU, DIVU, REMU, AND, OR, XOR, SLTU,
		ADDI, ANDI, SHLI, SHRI, LOAD, STORE, FLUSH, BEQ, BNE, BLT, BGE,
		JALR:
		return true
	}
	return false
}

// ReadsSrc2 reports whether o reads Src2.
func (o Op) ReadsSrc2() bool {
	switch o {
	case ADD, SUB, MUL, MULHU, DIVU, REMU, AND, OR, XOR, SLTU, STORE,
		BEQ, BNE, BLT, BGE:
		return true
	}
	return false
}

// Instr is one decoded instruction.
type Instr struct {
	Op     Op
	Dst    Reg
	Src1   Reg
	Src2   Reg
	Imm    int64
	Target int // branch target: instruction index within the program
}

// String renders the instruction in disassembly syntax.
func (in Instr) String() string {
	switch in.Op {
	case NOP, HALT, FENCE:
		return in.Op.String()
	case MOVI:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Dst, in.Imm)
	case MOV:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.Src1)
	case ADD, SUB, MUL, MULHU, DIVU, REMU, AND, OR, XOR, SLTU:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.Src1, in.Src2)
	case ADDI, ANDI, SHLI, SHRI:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Dst, in.Src1, in.Imm)
	case LOAD:
		return fmt.Sprintf("%s %s, [%s+%d]", in.Op, in.Dst, in.Src1, in.Imm)
	case STORE:
		return fmt.Sprintf("%s [%s+%d], %s", in.Op, in.Src1, in.Imm, in.Src2)
	case FLUSH:
		return fmt.Sprintf("%s [%s+%d]", in.Op, in.Src1, in.Imm)
	case RDTSC:
		return fmt.Sprintf("%s %s", in.Op, in.Dst)
	case BEQ, BNE, BLT, BGE:
		return fmt.Sprintf("%s %s, %s, @%d", in.Op, in.Src1, in.Src2, in.Target)
	case JMP:
		return fmt.Sprintf("%s @%d", in.Op, in.Target)
	case JAL:
		return fmt.Sprintf("%s %s, @%d", in.Op, in.Dst, in.Target)
	case JALR:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.Src1)
	}
	return in.Op.String()
}

// Program is a sequence of instructions plus initial data memory
// contents (64-bit words keyed by virtual byte address).
type Program struct {
	Name string
	Code []Instr
	Data map[uint64]uint64
}

// NewProgram returns an empty named program.
func NewProgram(name string) *Program {
	return &Program{Name: name, Data: make(map[uint64]uint64)}
}

// SetWord records an initial 64-bit data word at virtual address addr.
func (p *Program) SetWord(addr, value uint64) {
	if p.Data == nil {
		p.Data = make(map[uint64]uint64)
	}
	p.Data[addr] = value
}

// Validate checks structural well-formedness: defined opcodes, valid
// registers, in-range branch targets, and that the program terminates
// in a HALT (so the simulator cannot run off the end).
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("isa: program %q is empty", p.Name)
	}
	for i, in := range p.Code {
		if !in.Op.Valid() {
			return fmt.Errorf("isa: %q@%d: invalid opcode %d", p.Name, i, uint8(in.Op))
		}
		if !in.Dst.Valid() || !in.Src1.Valid() || !in.Src2.Valid() {
			return fmt.Errorf("isa: %q@%d: invalid register in %v", p.Name, i, in)
		}
		if in.Op.IsBranch() {
			if in.Target < 0 || in.Target >= len(p.Code) {
				return fmt.Errorf("isa: %q@%d: branch target %d out of range [0,%d)", p.Name, i, in.Target, len(p.Code))
			}
		}
	}
	halted := false
	for _, in := range p.Code {
		if in.Op == HALT {
			halted = true
			break
		}
	}
	if !halted {
		return fmt.Errorf("isa: program %q has no HALT", p.Name)
	}
	return nil
}

// Disassemble renders the whole program, one instruction per line.
func (p *Program) Disassemble() string {
	out := ""
	for i, in := range p.Code {
		out += fmt.Sprintf("%4d: %s\n", i, in)
	}
	return out
}

// DataWord is one initial data-memory word of a compiled Image.
type DataWord struct {
	Addr  uint64
	Value uint64
}

// Image is a precompiled program: validated once, with the Data map
// snapshotted into a dense address-sorted slice. Installing an Image
// into a machine (cpu.Machine.InitProcessImage) skips both the
// per-trial Validate pass and the map iteration, which is what lets a
// case run hundreds of trials against one compiled artifact.
// Images are immutable once compiled and safe to share across
// goroutines.
type Image struct {
	Prog *Program
	Data []DataWord
}

// Compile validates the program and snapshots its data section into an
// Image. The program must not be mutated afterwards.
func Compile(p *Program) (*Image, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	img := &Image{Prog: p, Data: make([]DataWord, 0, len(p.Data))}
	for a, v := range p.Data {
		img.Data = append(img.Data, DataWord{Addr: a, Value: v})
	}
	sort.Slice(img.Data, func(i, j int) bool { return img.Data[i].Addr < img.Data[j].Addr })
	return img, nil
}
