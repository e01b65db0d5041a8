package main

import (
	"math/rand"

	"vpsec/internal/cpu"
	"vpsec/internal/isa"
	"vpsec/internal/oracle"
	"vpsec/internal/predictor"
	"vpsec/internal/progen"
)

// progenCorpus generates the cpu probe's n programs: progen seeds 1..n,
// the oracle tests' numbering, shifted by the seed offset. The programs
// are short (about 75 instructions and 540 cycles) and hazard-dense.
func progenCorpus(offset int64, n int) []*isa.Program {
	progs := make([]*isa.Program, n)
	for i := range progs {
		progs[i] = progen.Generate(progen.Default(), offset+int64(i)+1)
	}
	return progs
}

// newMachine builds the machine one oracle configuration describes and
// loads prog into it, optionally wrapping the configuration's predictor.
func newMachine(spec oracle.Spec, prog *isa.Program, wrap func(predictor.Predictor) predictor.Predictor) (*cpu.Machine, *cpu.Process, error) {
	var pred predictor.Predictor
	if spec.Pred != nil {
		pred = spec.Pred()
		if wrap != nil {
			pred = wrap(pred)
		}
	}
	m, err := cpu.NewMachine(spec.Cfg, nil, pred, rand.New(rand.NewSource(spec.Seed)))
	if err != nil {
		return nil, nil, err
	}
	m.Noise = spec.Noise
	proc, err := m.NewProcess(1, prog, 0)
	if err != nil {
		return nil, nil, err
	}
	return m, proc, nil
}
