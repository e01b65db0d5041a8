// Package asm implements a small text assembler for the simulator's
// ISA, so attack programs and victims can be written as .vasm files and
// run with cmd/vpsim. Syntax:
//
//	; comment (also # comment)
//	.equ   name value        ; symbolic constant
//	.word  addr, value       ; initial data memory word
//	label:
//	        movi  r1, 0x1000
//	        load  r2, r1, 0   ; r2 = mem64[r1+0]
//	        store r1, 8, r2   ; mem64[r1+8] = r2
//	        flush r1, 0
//	        fence
//	        rdtsc r3
//	        addi  r1, r1, 8
//	        beq   r1, r2, label
//	        jmp   label
//	        halt
//
// Immediates are decimal, 0x-hex, or .equ symbols; negative decimals
// are allowed. Labels and symbols share a namespace.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"vpsec/internal/isa"
)

// Error describes an assembly failure with its line number.
type Error struct {
	Line int
	Msg  string
}

// Error formats the failure with its source line.
func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type line struct {
	num   int
	label string
	mnem  string
	args  []string
}

// Assemble parses src into a validated program named name.
func Assemble(name, src string) (*isa.Program, error) {
	lines, err := tokenize(src)
	if err != nil {
		return nil, err
	}

	syms := map[string]int64{}
	type dataWord struct {
		num        int
		addr, data string
	}
	var data []dataWord
	var code []line
	labels := map[string]int{}

	// Pass 1: collect .equ symbols, data directives, label addresses.
	for _, ln := range lines {
		if ln.label != "" {
			if _, dup := labels[ln.label]; dup {
				return nil, &Error{ln.num, fmt.Sprintf("duplicate label %q", ln.label)}
			}
			if _, dup := syms[ln.label]; dup {
				return nil, &Error{ln.num, fmt.Sprintf("label %q collides with symbol", ln.label)}
			}
			labels[ln.label] = len(code)
		}
		switch ln.mnem {
		case "":
			continue
		case ".equ":
			if len(ln.args) != 2 {
				return nil, &Error{ln.num, ".equ needs name and value"}
			}
			v, err := parseImm(ln.args[1], syms)
			if err != nil {
				return nil, &Error{ln.num, err.Error()}
			}
			if _, dup := syms[ln.args[0]]; dup {
				return nil, &Error{ln.num, fmt.Sprintf("duplicate symbol %q", ln.args[0])}
			}
			syms[ln.args[0]] = v
		case ".word":
			if len(ln.args) != 2 {
				return nil, &Error{ln.num, ".word needs addr and value"}
			}
			data = append(data, dataWord{ln.num, ln.args[0], ln.args[1]})
		default:
			code = append(code, ln)
		}
	}

	// Pass 2: encode instructions.
	prog := isa.NewProgram(name)
	for _, ln := range code {
		in, err := encode(ln, syms, labels)
		if err != nil {
			return nil, err
		}
		prog.Code = append(prog.Code, in)
	}
	for _, d := range data {
		a, err := parseImm(d.addr, syms)
		if err != nil {
			return nil, &Error{d.num, err.Error()}
		}
		v, err := parseImm(d.data, syms)
		if err != nil {
			return nil, &Error{d.num, err.Error()}
		}
		prog.SetWord(uint64(a), uint64(v))
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

func tokenize(src string) ([]line, error) {
	var out []line
	for i, raw := range strings.Split(src, "\n") {
		num := i + 1
		s := raw
		if j := strings.IndexAny(s, ";#"); j >= 0 {
			s = s[:j]
		}
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		var ln line
		ln.num = num
		if j := strings.Index(s, ":"); j >= 0 {
			ln.label = strings.TrimSpace(s[:j])
			if ln.label == "" || strings.ContainsAny(ln.label, " \t,") {
				return nil, &Error{num, fmt.Sprintf("bad label %q", ln.label)}
			}
			s = strings.TrimSpace(s[j+1:])
		}
		if s != "" {
			fields := strings.Fields(s)
			ln.mnem = strings.ToLower(fields[0])
			rest := strings.TrimSpace(s[len(fields[0]):])
			// Operands are separated by commas and/or whitespace; no
			// operand contains either, so treat both as delimiters.
			rest = strings.ReplaceAll(rest, ",", " ")
			ln.args = strings.Fields(rest)
		}
		out = append(out, ln)
	}
	return out, nil
}

var regForms = map[string]isa.Op{
	"add": isa.ADD, "sub": isa.SUB, "mul": isa.MUL, "mulhu": isa.MULHU,
	"divu": isa.DIVU, "remu": isa.REMU, "and": isa.AND, "or": isa.OR,
	"xor": isa.XOR, "sltu": isa.SLTU,
}

var immForms = map[string]isa.Op{
	"addi": isa.ADDI, "andi": isa.ANDI, "shli": isa.SHLI, "shri": isa.SHRI,
}

var branchForms = map[string]isa.Op{
	"beq": isa.BEQ, "bne": isa.BNE, "blt": isa.BLT, "bge": isa.BGE,
}

func encode(ln line, syms map[string]int64, labels map[string]int) (isa.Instr, error) {
	bad := func(format string, args ...any) (isa.Instr, error) {
		return isa.Instr{}, &Error{ln.num, fmt.Sprintf(format, args...)}
	}
	need := func(n int) error {
		if len(ln.args) != n {
			return &Error{ln.num, fmt.Sprintf("%s needs %d operands, got %d", ln.mnem, n, len(ln.args))}
		}
		return nil
	}
	switch m := ln.mnem; {
	case m == "nop":
		if err := need(0); err != nil {
			return isa.Instr{}, err
		}
		return isa.Instr{Op: isa.NOP}, nil
	case m == "halt":
		if err := need(0); err != nil {
			return isa.Instr{}, err
		}
		return isa.Instr{Op: isa.HALT}, nil
	case m == "fence":
		if err := need(0); err != nil {
			return isa.Instr{}, err
		}
		return isa.Instr{Op: isa.FENCE}, nil
	case m == "movi":
		if err := need(2); err != nil {
			return isa.Instr{}, err
		}
		d, err := parseReg(ln.args[0])
		if err != nil {
			return bad("%v", err)
		}
		v, err := parseImm(ln.args[1], syms)
		if err != nil {
			return bad("%v", err)
		}
		return isa.Instr{Op: isa.MOVI, Dst: d, Imm: v}, nil
	case m == "mov":
		if err := need(2); err != nil {
			return isa.Instr{}, err
		}
		d, err1 := parseReg(ln.args[0])
		s, err2 := parseReg(ln.args[1])
		if err1 != nil || err2 != nil {
			return bad("bad register in mov")
		}
		return isa.Instr{Op: isa.MOV, Dst: d, Src1: s}, nil
	case m == "rdtsc":
		if err := need(1); err != nil {
			return isa.Instr{}, err
		}
		d, err := parseReg(ln.args[0])
		if err != nil {
			return bad("%v", err)
		}
		return isa.Instr{Op: isa.RDTSC, Dst: d}, nil
	case regForms[m] != 0:
		if err := need(3); err != nil {
			return isa.Instr{}, err
		}
		d, e1 := parseReg(ln.args[0])
		s1, e2 := parseReg(ln.args[1])
		s2, e3 := parseReg(ln.args[2])
		if e1 != nil || e2 != nil || e3 != nil {
			return bad("bad register in %s", m)
		}
		return isa.Instr{Op: regForms[m], Dst: d, Src1: s1, Src2: s2}, nil
	case immForms[m] != 0:
		if err := need(3); err != nil {
			return isa.Instr{}, err
		}
		d, e1 := parseReg(ln.args[0])
		s1, e2 := parseReg(ln.args[1])
		if e1 != nil || e2 != nil {
			return bad("bad register in %s", m)
		}
		v, err := parseImm(ln.args[2], syms)
		if err != nil {
			return bad("%v", err)
		}
		return isa.Instr{Op: immForms[m], Dst: d, Src1: s1, Imm: v}, nil
	case m == "load":
		if err := need(3); err != nil {
			return isa.Instr{}, err
		}
		d, e1 := parseReg(ln.args[0])
		b, e2 := parseReg(ln.args[1])
		if e1 != nil || e2 != nil {
			return bad("bad register in load")
		}
		v, err := parseImm(ln.args[2], syms)
		if err != nil {
			return bad("%v", err)
		}
		return isa.Instr{Op: isa.LOAD, Dst: d, Src1: b, Imm: v}, nil
	case m == "store":
		if err := need(3); err != nil {
			return isa.Instr{}, err
		}
		b, e1 := parseReg(ln.args[0])
		if e1 != nil {
			return bad("bad base register in store")
		}
		v, err := parseImm(ln.args[1], syms)
		if err != nil {
			return bad("%v", err)
		}
		s, e2 := parseReg(ln.args[2])
		if e2 != nil {
			return bad("bad source register in store")
		}
		return isa.Instr{Op: isa.STORE, Src1: b, Imm: v, Src2: s}, nil
	case m == "flush":
		if err := need(2); err != nil {
			return isa.Instr{}, err
		}
		b, e1 := parseReg(ln.args[0])
		if e1 != nil {
			return bad("bad register in flush")
		}
		v, err := parseImm(ln.args[1], syms)
		if err != nil {
			return bad("%v", err)
		}
		return isa.Instr{Op: isa.FLUSH, Src1: b, Imm: v}, nil
	case branchForms[m] != 0:
		if err := need(3); err != nil {
			return isa.Instr{}, err
		}
		s1, e1 := parseReg(ln.args[0])
		s2, e2 := parseReg(ln.args[1])
		if e1 != nil || e2 != nil {
			return bad("bad register in %s", m)
		}
		t, ok := labels[ln.args[2]]
		if !ok {
			return bad("undefined label %q", ln.args[2])
		}
		return isa.Instr{Op: branchForms[m], Src1: s1, Src2: s2, Target: t}, nil
	case m == "jmp":
		if err := need(1); err != nil {
			return isa.Instr{}, err
		}
		t, ok := labels[ln.args[0]]
		if !ok {
			return bad("undefined label %q", ln.args[0])
		}
		return isa.Instr{Op: isa.JMP, Target: t}, nil
	case m == "jal":
		if err := need(2); err != nil {
			return isa.Instr{}, err
		}
		d, e1 := parseReg(ln.args[0])
		if e1 != nil {
			return bad("bad register in jal")
		}
		t, ok := labels[ln.args[1]]
		if !ok {
			return bad("undefined label %q", ln.args[1])
		}
		return isa.Instr{Op: isa.JAL, Dst: d, Target: t}, nil
	case m == "jalr":
		if err := need(2); err != nil {
			return isa.Instr{}, err
		}
		d, e1 := parseReg(ln.args[0])
		s1, e2 := parseReg(ln.args[1])
		if e1 != nil || e2 != nil {
			return bad("bad register in jalr")
		}
		return isa.Instr{Op: isa.JALR, Dst: d, Src1: s1}, nil
	}
	return bad("unknown mnemonic %q", ln.mnem)
}

func parseReg(s string) (isa.Reg, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return isa.Reg(n), nil
}

func parseImm(s string, syms map[string]int64) (int64, error) {
	s = strings.TrimSpace(s)
	if v, ok := syms[s]; ok {
		return v, nil
	}
	neg := false
	t := s
	if strings.HasPrefix(t, "-") {
		neg = true
		t = t[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(strings.ToLower(t), "0x") {
		v, err = strconv.ParseUint(t[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(t, 10, 64)
	}
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}
