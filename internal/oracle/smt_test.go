package oracle

import (
	"errors"
	"fmt"
	"testing"

	"vpsec/internal/cpu"
	"vpsec/internal/isa"
	"vpsec/internal/progen"
	"vpsec/internal/trace"
)

// smtOffset is the physical offset of the second hardware thread's
// address space, far above anything a progen program touches.
const smtOffset = 1 << 30

// TestDiffSMT runs generated program pairs as the two hardware threads
// of one SMT core (cpu.Machine.RunSMT) on every standard spec and
// diffs each thread against its own reference. The threads share the
// caches, the predictor, the issue ports and the entry arena, so this
// checks that neither thread's speculation, squashes or replays reach
// the other's architectural state. Pair i is seeds i+1 (process 1, at
// physical offset 0) and i+10001 (process 2, at smtOffset); the seeds
// reproduce a failing pair exactly.
func TestDiffSMT(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 10
	}
	for i := 0; i < n; i++ {
		seedA := int64(i) + 1
		seedB := seedA + 10000
		a := progen.Generate(progen.Default(), seedA)
		b := progen.Generate(progen.Default(), seedB)
		for _, spec := range Specs() {
			if err := diffSMT(a, b, spec); err != nil {
				t.Errorf("seeds %d and %d: %v", seedA, seedB, err)
			}
		}
	}
}

// diffSMT runs a and b as SMT threads on a machine built from spec and
// compares each thread's commit log, final registers, memory in its
// own address space, retired count and counters with its reference.
func diffSMT(a, b *isa.Program, spec Spec) error {
	progs := [2]*isa.Program{a, b}
	var want [2]*Result
	for i, p := range progs {
		res, err := Run(p)
		if err != nil {
			return err
		}
		want[i] = res
	}
	m, err := spec.machine()
	if err != nil {
		return err
	}
	var logs [2][]isa.Commit // by PID-1
	m.Events = func(ev trace.Event) {
		if ev.Kind == trace.Commit {
			logs[ev.PID-1] = append(logs[ev.PID-1], ev.Commit)
		}
	}
	var procs [2]*cpu.Process
	for i, p := range progs {
		if procs[i], err = m.NewProcess(uint64(i+1), p, uint64(i)*smtOffset); err != nil {
			return err
		}
	}
	var res [2]cpu.RunResult
	if res[0], res[1], err = m.RunSMT(procs[0], procs[1]); err != nil {
		if errors.Is(err, cpu.ErrInvariant) {
			return mismatchf(spec, "%v", err)
		}
		return err
	}
	mem := [2]map[uint64]uint64{{}, {}}
	for addr, v := range m.Hier.Mem.Snapshot() {
		i := min(addr/smtOffset, 1)
		mem[i][addr-i*smtOffset] = v
	}
	for i := range progs {
		if err := compare(spec, want[i], logs[i], res[i], mem[i]); err != nil {
			return fmt.Errorf("process %d: %w", i+1, err)
		}
	}
	return nil
}
