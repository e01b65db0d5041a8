package attacks

import "vpsec/internal/isa"

// This file implements the honest form of the volatile channel: the
// receiver runs a sampler on the sibling SMT hardware thread and
// observes only its *own* per-window execution time. When the victim
// thread's transient parity burst fires (predicted secret odd), the
// shared issue ports saturate and the sampler's windows stretch —
// SMoTherSpectre's observation model, with no simulator-internal
// counters involved.

const (
	samplerResults = 0x30000
	samplerWindows = 48
)

// buildSampler emits the co-runner: per window, rdtsc / 8 independent
// adds / rdtsc, recording the window latency.
func buildSampler() (*isa.Program, error) {
	b := isa.NewBuilder("smt-sampler")
	b.MovI(isa.R10, samplerResults)
	b.MovI(isa.R3, 0)
	b.MovI(isa.R4, samplerWindows)
	b.MovI(isa.R1, 7)
	b.Label("window")
	b.Rdtsc(isa.R20)
	for i := 0; i < 16; i++ {
		b.Add(isa.R5, isa.R1, isa.R1)
	}
	b.Rdtsc(isa.R21)
	b.Sub(isa.R22, isa.R21, isa.R20)
	b.ShlI(isa.R11, isa.R3, 3)
	b.Add(isa.R12, isa.R10, isa.R11)
	b.Store(isa.R12, 0, isa.R22)
	b.AddI(isa.R3, isa.R3, 1)
	b.Blt(isa.R3, isa.R4, "window")
	b.Halt()
	return b.Build()
}

// The co-runner runs as its own process, with memory away from both
// parties.
const (
	samplerPID  = 5
	samplerPhys = 3 << 30
)

// runWithSampler runs the volatile trigger kernel and the sampler as
// simultaneous SMT threads and returns the receiver's observation —
// the summed sampler window latencies, larger when the trigger's
// transient parity burst contends for the shared ports — plus both
// threads' cycles.
func (e *env) runWithSampler(pid uint64, p kernelParams, physBase uint64) (float64, uint64, error) {
	victim, span, err := e.load(pid, p, physBase)
	if err != nil {
		return 0, 0, err
	}
	defer span.End()
	// The sampler shares the core on the sibling hardware thread rather
	// than taking it over, so installing it switches no context.
	co, err := e.install(samplerPID, kernelParams{prog: smtSampler}, samplerPhys)
	if err != nil {
		return 0, 0, err
	}
	rv, rs, err := e.m.RunSMT(victim, co)
	if err != nil {
		return 0, 0, err
	}
	var obs float64
	for i := 0; i < samplerWindows; i++ {
		obs += float64(e.m.Hier.Mem.Peek(samplerPhys + samplerResults + uint64(8*i)))
	}
	return obs, rv.Cycles + rs.Cycles, nil
}
