package cpu

import "fmt"

// RunSMT executes two processes simultaneously on one core, 2-way
// SMT style: each hardware thread has its own ROB, rename map and
// fetch stream, but the threads share the caches, the value predictor,
// the global cycle counter, and — critically for the volatile channel
// — the issue ports and memory ports. Port priority alternates each
// cycle (round-robin fairness). When one thread halts, the other keeps
// the full machine to itself.
//
// Each thread runs the same per-cycle stages as Run, the invariant
// sweep of Config.CheckInvariants included. The loop ticks cycle by
// cycle — event-driven skipping is never legal here, because a cycle
// that is quiet for one hardware thread can still be consumed
// (observably, through the shared issue budget) by its peer — and,
// unlike Run, publishes no metrics.
//
// The per-thread RunResults count only the cycles during which that
// thread was still running.
func (m *Machine) RunSMT(a, b *Process) (RunResult, RunResult, error) {
	pa := m.getPipeline(a)
	pb := m.getPipeline(b)
	// Keep trace sequence numbers disjoint between the two hardware
	// threads.
	pb.seqBase = 1 << 32

	finish := func(err error) (RunResult, RunResult, error) {
		ra, rb := pa.res, pb.res
		m.putPipeline(pa)
		m.putPipeline(pb)
		return ra, rb, err
	}

	var guard uint64
	for !pa.halted || !pb.halted {
		now := m.Cycle
		budget := issueBudget{ports: m.Cfg.IssueWidth, mem: m.Cfg.MemPorts, mul: mulPorts}
		first, second := pa, pb
		if now%2 == 1 {
			first, second = pb, pa
		}
		for _, p := range [2]*pipeline{first, second} {
			if p.halted {
				continue
			}
			if err := p.cycle(now, &budget); err != nil {
				return finish(err)
			}
			p.res.Cycles++
		}
		m.Cycle++
		guard++
		if guard >= m.Cfg.MaxCycles {
			return finish(fmt.Errorf("cpu: SMT run exceeded %d cycles", m.Cfg.MaxCycles))
		}
	}
	a.Regs = pa.regs
	pa.res.Regs = pa.regs
	b.Regs = pb.regs
	pb.res.Regs = pb.regs
	return finish(nil)
}
