// Package rsa reproduces the paper's end-to-end application attack
// (Sec. IV-D1, Figs. 6 and 7): recovering the private exponent of an
// RSA modular exponentiation through the value predictor.
//
// The victim is libgcrypt's _gcry_mpi_powm structure compiled to the
// simulator's ISA: for every exponent bit it squares, multiplies
// unconditionally (the FLUSH+RELOAD mitigation of Fig. 6 line 10),
// and swaps the rp/xp result pointers only when the bit is 1
// (Fig. 6 lines 16-20, the tp access highlighted in the paper). The
// victim here is additionally *balanced*: the 0-bit path performs a
// matching pointer load from a scratch cell, so both paths execute the
// same number of loads and a cache-timing attacker sees identical miss
// counts. This models a hardened implementation — and shows why value
// prediction still leaks: the 0-bit path's pointer is constant and
// trains the predictor (fast, predicted), while the 1-bit path's
// pointer alternates between the two MPI buffers on every swap, so its
// confidence never builds (slow, never predicted). The attacker only
// needs to observe per-iteration timing, exactly Fig. 7.
//
// The receiver forces the pointer cells and MPI buffers out of the
// cache each iteration (clflush from another core; modeled as inline
// flushes, per the threat model "the miss ... can be forced by a
// malicious attacker").
//
// The package has one victim, on one-limb operands (a modulus below
// 2^62), and checks its architectural result against a host-side
// uint64 modexp. PaperVictim is the configuration Fig. 7, the report
// and the locality audit attack.
package rsa

import (
	"fmt"

	"vpsec/internal/isa"
)

// Victim memory layout (virtual addresses).
const (
	modAddr   = 0x100
	baseAddr  = 0x108
	expAddr   = 0x110
	resAddr   = 0x300
	ptrCell   = 0x200 // rp pointer cell: holds bufA or bufB
	dummyCell = 0x240 // balanced 0-bit pointer cell: always bufC
	bufA      = 0x1000
	bufB      = 0x1040 // separate cache line
	bufC      = 0x1080
	resultsAt = 0x8000 // per-iteration cycle counts
)

// VictimConfig parameterizes the modexp victim.
type VictimConfig struct {
	Base     uint64
	Mod      uint64 // must be odd, >= 3, and < 2^62 (reduction headroom)
	Exponent uint64 // the secret
	ExpBits  int    // bits processed, MSB first; 0 means Exponent's bit length
}

// paperSecret is the fixed secret exponent of Fig. 7, paperSecretBits
// bits long.
const (
	paperSecret     = 0b101100111010110111001011110011010110111001011010101
	paperSecretBits = 51
)

// PaperVictim returns the victim configuration of Fig. 7, the report
// and the locality audit: base 0x1234567, the odd modulus 0x3b9aca07
// (~1e9) and, as the secret, the top bits bits of the fixed 51-bit
// Fig. 7 exponent. bits must be in [1,51]; PaperVictim panics
// otherwise.
func PaperVictim(bits int) VictimConfig {
	if bits < 1 || bits > paperSecretBits {
		panic(fmt.Sprintf("rsa: PaperVictim(%d): bits must be in [1,%d]", bits, paperSecretBits))
	}
	return VictimConfig{
		Base:     0x1234567,
		Mod:      0x3b9aca07,
		Exponent: paperSecret >> (paperSecretBits - bits),
		ExpBits:  bits,
	}
}

// Validate checks the configuration.
func (c VictimConfig) Validate() error {
	if c.Mod < 3 || c.Mod%2 == 0 {
		return fmt.Errorf("rsa: modulus %d must be odd and >= 3", c.Mod)
	}
	if c.Mod >= 1<<62 {
		return fmt.Errorf("rsa: modulus %#x too large (needs < 2^62 for shift-subtract reduction)", c.Mod)
	}
	if c.ExpBits < 0 || c.ExpBits > 60 {
		return fmt.Errorf("rsa: ExpBits %d out of range [0,60]", c.ExpBits)
	}
	if c.ExpBits == 0 && c.Exponent == 0 {
		return fmt.Errorf("rsa: zero exponent with no explicit bit count")
	}
	return nil
}

func (c VictimConfig) bits() int {
	if c.ExpBits > 0 {
		return c.ExpBits
	}
	n := 0
	for v := c.Exponent; v != 0; v >>= 1 {
		n++
	}
	return n
}

// BuildVictim compiles the Fig. 6 victim for cfg.
func BuildVictim(cfg VictimConfig) (*isa.Program, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bits := cfg.bits()
	b := isa.NewBuilder("rsa-powm")
	b.Word(modAddr, cfg.Mod)
	b.Word(baseAddr, cfg.Base)
	b.Word(expAddr, cfg.Exponent)
	b.Word(ptrCell, bufA)
	b.Word(dummyCell, bufC)

	// Prologue: r1 = m, r2 = base mod m, r5 = exponent, r3 = r = 1.
	b.MovI(isa.R25, modAddr)
	b.Load(isa.R1, isa.R25, 0)
	b.MovI(isa.R25, baseAddr)
	b.Load(isa.R2, isa.R25, 0)
	b.RemU(isa.R2, isa.R2, isa.R1)
	b.MovI(isa.R25, expAddr)
	b.Load(isa.R5, isa.R25, 0)
	b.MovI(isa.R3, 1)
	b.MovI(isa.R13, ptrCell)
	b.MovI(isa.R14, dummyCell)
	b.MovI(isa.R15, resultsAt)
	b.MovI(isa.R17, bufA+bufB) // swap: other = sum - tp
	b.MovI(isa.R4, int64(bits)-1)
	b.MovI(isa.R16, 0) // iteration counter

	b.Label("bit_loop")
	b.Rdtsc(isa.R20)

	// _gcry_mpih_sqr_n_basecase: r = r*r mod m.
	b.Mov(isa.R6, isa.R3)
	b.Mov(isa.R7, isa.R3)
	emitMulMod(b, "sqr")
	b.Mov(isa.R3, isa.R10)

	// Unconditional _gcry_mpih_mul: x = r*base mod m (FLUSH+RELOAD
	// mitigation — executed for every bit).
	b.Mov(isa.R6, isa.R3)
	b.Mov(isa.R7, isa.R2)
	emitMulMod(b, "mul")
	b.Mov(isa.R19, isa.R10) // x

	// e_bit = top remaining exponent bit; shift for the next iteration.
	b.ShrI(isa.R24, isa.R5, int64(bits)-1)
	b.AndI(isa.R24, isa.R24, 1)
	b.ShlI(isa.R5, isa.R5, 1)

	b.Beq(isa.R24, isa.R0, "zero_bit")
	// e_bit == 1: tp = rp; rp = xp; xp = tp (Fig. 6 lines 16-19).
	// The tp pointer load: its value alternates bufA/bufB every swap,
	// so the VPS never reaches confidence here. The dereference reads a
	// different word of the buffer line and sits before the store, so
	// it always goes to the (receiver-flushed) cache — no store-buffer
	// forwarding, no install race — and overlaps the pointer miss only
	// under a value prediction.
	b.Load(isa.R18, isa.R13, 0) // tp = *ptrCell   <-- the leaking load
	b.Load(isa.R24, isa.R18, 8) // dependent dereference
	b.Store(isa.R18, 0, isa.R19)
	b.Mov(isa.R3, isa.R19) // rsize = xsize; result moves
	b.Sub(isa.R12, isa.R17, isa.R18)
	b.Store(isa.R13, 0, isa.R12) // swap the pointer
	b.Jmp("join")

	b.Label("zero_bit")
	// Balanced path: same shape, constant pointer — this is what the
	// VPS trains on.
	b.Load(isa.R18, isa.R14, 0) // tp = *dummyCell
	b.Load(isa.R24, isa.R18, 8) // balanced dependent dereference
	b.Store(isa.R18, 0, isa.R3)
	b.Mov(isa.R12, isa.R3) // balance the register moves
	b.Mov(isa.R12, isa.R12)
	b.Nop()

	b.Label("join")

	// Receiver-forced evictions of the pointer cells and MPI buffers.
	b.Flush(isa.R13, 0)
	b.Flush(isa.R14, 0)
	b.MovI(isa.R25, bufA)
	b.Flush(isa.R25, 0)
	b.MovI(isa.R25, bufB)
	b.Flush(isa.R25, 0)
	b.MovI(isa.R25, bufC)
	b.Flush(isa.R25, 0)
	b.Fence()

	b.Rdtsc(isa.R21)
	b.Sub(isa.R22, isa.R21, isa.R20)
	b.ShlI(isa.R23, isa.R16, 3)
	b.Add(isa.R23, isa.R15, isa.R23)
	b.Store(isa.R23, 0, isa.R22) // results[iter] = cycles

	b.AddI(isa.R16, isa.R16, 1)
	b.AddI(isa.R4, isa.R4, -1)
	b.Bge(isa.R4, isa.R0, "bit_loop")

	b.MovI(isa.R25, resAddr)
	b.Store(isa.R25, 0, isa.R3)
	b.Halt()
	return b.Build()
}

// emitMulMod emits r10 = r6 * r7 mod r1 using a 64-step shift-subtract
// reduction of the 128-bit product (the simulator has only 64-bit
// divide). The conditional subtraction is branch-free — sign-bit
// masking, as constant-time crypto code is written — so the
// reduction's timing is data-independent and the only secret-dependent
// timing left in the victim is what the value predictor introduces.
// Requires m < 2^62 so rem<<1|bit stays below 2^63 (headroom for the
// sign-bit trick). Clobbers r8-r12 and r26-r27.
func emitMulMod(b *isa.Builder, tag string) {
	loop := "mm_" + tag + "_loop"
	b.Mul(isa.R9, isa.R6, isa.R7)   // lo
	b.MulHU(isa.R8, isa.R6, isa.R7) // hi
	b.RemU(isa.R10, isa.R8, isa.R1) // rem = hi mod m
	b.MovI(isa.R11, 64)
	b.Label(loop)
	b.ShrI(isa.R12, isa.R9, 63)
	b.ShlI(isa.R10, isa.R10, 1)
	b.Add(isa.R10, isa.R10, isa.R12) // rem = rem<<1 | top bit of lo
	b.ShlI(isa.R9, isa.R9, 1)
	// Branch-free rem = rem >= m ? rem-m : rem.
	b.Sub(isa.R26, isa.R10, isa.R1)  // d = rem - m (wraps when rem < m)
	b.ShrI(isa.R27, isa.R26, 63)     // 1 if rem < m
	b.Sub(isa.R27, isa.R0, isa.R27)  // all-ones mask if rem < m
	b.And(isa.R27, isa.R1, isa.R27)  // m if rem < m, else 0
	b.Add(isa.R10, isa.R26, isa.R27) // d + m = rem, or d = rem - m
	b.AddI(isa.R11, isa.R11, -1)
	b.Bne(isa.R11, isa.R0, loop)
}

// ResultAddr is where the victim stores its modexp result.
const ResultAddr = resAddr
