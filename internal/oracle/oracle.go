// Package oracle is the correctness substrate of the simulator: a
// recorder over the in-order reference interpreter (isa.Interp) and a
// differential harness that checks the out-of-order pipeline in
// internal/cpu against it on thousands of randomly generated programs
// (internal/progen) across a matrix of predictor/cache/latency
// configurations.
//
// The contract is that the reference shares no code with the pipeline:
// cpu/pipeline.go keeps its own ALU, so a misreading of the ISA cannot
// hide in both. There is exactly one reference. This package used to
// carry a second copy of the opcode switch, and the copies drifted
// unnoticed: on "jalr r5, r5" isa.Interp wrote the link before reading
// the target, while this package and the pipeline jumped to the old r5
// (testdata/jalr_self.vasm now pins that case). Run produces the final
// architectural state (registers and memory) and a canonical commit
// log — one isa.Commit record per retired instruction — which the
// pipeline must reproduce byte-for-byte regardless of speculation,
// replay, cache contents or predictor behavior.
//
// See DESIGN.md §9 ("Correctness contract") for the invariant list and
// the failure-reproduction workflow.
package oracle

import (
	"errors"
	"fmt"
	"strings"

	"vpsec/internal/isa"
)

// MaxRetired bounds the reference run, protecting the harness against
// a non-terminating generated program (internal/progen guarantees
// termination structurally; this is defense in depth).
const MaxRetired = 4_000_000

// ErrNotComparable reports a program whose architectural results are
// timing-dependent and therefore outside the differential contract:
// RDTSC reads the cycle counter, which an untimed in-order model
// cannot reproduce. Such programs are still legal on the pipeline —
// they are what the attacks measure with — they just cannot be
// diffed architecturally.
var ErrNotComparable = errors.New("oracle: program reads RDTSC; architectural state is timing-dependent")

// Result is the outcome of a reference run: the final architectural
// state and the canonical commit log.
type Result struct {
	Regs    [isa.NumRegs]uint64 // final architectural registers
	Mem     map[uint64]uint64   // final data memory (initial data plus stored words)
	Log     []isa.Commit        // one record per retired instruction
	Retired uint64              // retired instruction count
}

// Run executes p on the in-order reference interpreter until HALT,
// recording every retired instruction. Every instruction
// architecturally retires exactly once, in program order; there is no
// speculation, no cache, no predictor and no timing.
func Run(p *isa.Program) (*Result, error) {
	res := &Result{}
	it := isa.NewInterp(p)
	it.OnRetire = func(c isa.Commit) error {
		if c.Op == isa.RDTSC {
			return ErrNotComparable
		}
		res.Log = append(res.Log, c)
		if c.Op != isa.HALT && len(res.Log) >= MaxRetired {
			return fmt.Errorf("oracle: program %q exceeded %d retired instructions", p.Name, MaxRetired)
		}
		return nil
	}
	n, err := it.Run(p)
	if err != nil {
		return nil, err
	}
	res.Regs, res.Mem, res.Retired = it.Regs, it.Mem, n
	return res, nil
}

// FormatLog renders a commit log in the canonical text form the golden
// tests under testdata/ compare byte-for-byte: one line per retired
// instruction, prefixed with its commit index.
func FormatLog(log []isa.Commit) string {
	var sb strings.Builder
	for i, c := range log {
		fmt.Fprintf(&sb, "%4d %s\n", i, c)
	}
	return sb.String()
}
