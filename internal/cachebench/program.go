// Program lowering: every (pattern, arm) pair becomes a deterministic
// straight-line .vasm program assembled through internal/asm. The text
// form is the case's ground truth — Source exposes it so a case can be
// inspected, diffed, or replayed under cmd/vpsim — and the assembled
// isa.Program is what the reference interpreter runs, once per arm, to
// derive the arm's schedule (run.go).

package cachebench

import (
	"fmt"
	"strings"
	"sync"

	"vpsec/internal/asm"
	"vpsec/internal/isa"
)

// The benchmark address layout. All addresses are line-aligned (64-byte
// lines). BaseA is the attacker-known line a. The alias eviction set is
// ConflictWays lines at AliasStride above a: the stride is 32 KiB = 512
// L2 sets x 64 bytes, so every alias line is set-congruent with a in
// both the 64-set L1 and the 512-set L2. The mapped arm's u is either a
// itself (RelLine) or the next congruent line above the alias set
// (RelSet); the unmapped arm's u lives three lines above a — a
// different set in both levels, so it shares no cache state with any
// step address.
const (
	// BaseA is the attacker-known line a.
	BaseA uint64 = 0x40000
	// AliasStride separates consecutive alias lines; congruent with a in
	// L1 and L2 (32 KiB = lcm of both levels' way sizes).
	AliasStride uint64 = 0x8000
	// ConflictWays is the alias eviction-set size — the associativity of
	// the benchmark hierarchy's sets, so priming the set fills it.
	ConflictWays = 8
	// MappedSetU is the RelSet mapped arm's u: congruent with a and the
	// alias set, distinct from all of them.
	MappedSetU = BaseA + (ConflictWays+1)*AliasStride
	// UnmappedU is the unmapped arm's u: a different set in both levels.
	UnmappedU = BaseA + 192
	// ResultAddr is where the program stores the measured step-3 cycle
	// count (Trial reads it back from the interpreter's memory).
	ResultAddr uint64 = 0x200
)

// uAddr resolves the secret address u for one arm of a pattern.
func (p Pattern) uAddr(mapped bool) uint64 {
	if !mapped {
		return UnmappedU
	}
	if p.Rel == RelSet {
		return MappedSetU
	}
	return BaseA
}

// Source generates the .vasm text of one arm of the pattern's program
// pair. The program is straight-line: three step blocks separated by
// fences, with the third step bracketed by rdtsc and its cycle delta
// stored to RESULT. Registers: r10 = u, r11 = a, r12 = alias cursor,
// r20/r21 = timestamps, r22 = delta, r23 = RESULT.
func (p Pattern) Source(mapped bool) string {
	var b strings.Builder
	arm := "unmapped"
	if mapped {
		arm = "mapped"
	}
	fmt.Fprintf(&b, "; cachebench %s, %s arm: %s\n", p, arm, p.Paper())
	fmt.Fprintf(&b, ".equ U 0x%x\n", p.uAddr(mapped))
	fmt.Fprintf(&b, ".equ A 0x%x\n", BaseA)
	fmt.Fprintf(&b, ".equ STRIDE 0x%x\n", AliasStride)
	fmt.Fprintf(&b, ".equ RESULT 0x%x\n", ResultAddr)
	b.WriteString("        movi  r10, U\n")
	b.WriteString("        movi  r11, A\n")
	b.WriteString("        movi  r23, RESULT\n")

	emit := func(s Step) {
		if s == Star {
			b.WriteString("        nop\n")
			return
		}
		if s.UsesAlias() {
			// The alias eviction set: ConflictWays congruent lines walked
			// by a register cursor.
			b.WriteString("        movi  r12, A\n")
			for k := 0; k < ConflictWays; k++ {
				b.WriteString("        addi  r12, r12, STRIDE\n")
				if s.Flush() {
					b.WriteString("        flush r12, 0\n")
				} else {
					b.WriteString("        load  r4, r12, 0\n")
				}
			}
			return
		}
		base := "r11"
		if s.UsesU() {
			base = "r10"
		}
		if s.Flush() {
			fmt.Fprintf(&b, "        flush %s, 0\n", base)
		} else {
			fmt.Fprintf(&b, "        load  r2, %s, 0\n", base)
		}
	}

	fmt.Fprintf(&b, "; step 1: %s\n", p.S1.Paper())
	emit(p.S1)
	b.WriteString("        fence\n")
	fmt.Fprintf(&b, "; step 2: %s\n", p.S2.Paper())
	emit(p.S2)
	b.WriteString("        fence\n")
	fmt.Fprintf(&b, "; step 3 (timed): %s\n", p.S3.Paper())
	b.WriteString("        rdtsc r20\n")
	emit(p.S3)
	b.WriteString("        rdtsc r21\n")
	b.WriteString("        sub   r22, r21, r20\n")
	b.WriteString("        store r23, 0, r22\n")
	b.WriteString("        halt\n")
	return b.String()
}

// armKey identifies one arm: pattern plus mapped or unmapped.
type armKey struct {
	pat    Pattern
	mapped bool
}

// armEntry is one memoized arm: its assembled program and the schedule
// derived from running that program once.
type armEntry struct {
	prog  *isa.Program
	sched *schedule
}

var (
	armMu    sync.Mutex
	armCache = map[armKey]*armEntry{}
)

// Compile assembles the pattern's arm, memoizing the result with the
// arm's schedule: a family run assembles and simulates each of the
// 2x976 distinct programs once, not once per trial. The returned
// program is shared — callers must not mutate it.
func (p Pattern) Compile(mapped bool) (*isa.Program, error) {
	e, err := p.arm(mapped)
	if err != nil {
		return nil, err
	}
	return e.prog, nil
}

// arm looks up the arm's memo entry, assembling the program and
// deriving its schedule on first use.
func (p Pattern) arm(mapped bool) (*armEntry, error) {
	key := armKey{p, mapped}
	armMu.Lock()
	e, ok := armCache[key]
	armMu.Unlock()
	if ok {
		return e, nil
	}
	name := fmt.Sprintf("cachebench-%s.%s.vasm", p, map[bool]string{true: "mapped", false: "unmapped"}[mapped])
	prog, err := asm.Assemble(name, p.Source(mapped))
	if err != nil {
		return nil, fmt.Errorf("cachebench: %s: %v", p, err)
	}
	sched, err := newSchedule(prog)
	if err != nil {
		return nil, fmt.Errorf("cachebench: %s: %v", p, err)
	}
	e = &armEntry{prog: prog, sched: sched}
	armMu.Lock()
	armCache[key] = e
	armMu.Unlock()
	return e, nil
}
