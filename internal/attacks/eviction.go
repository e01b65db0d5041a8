package attacks

import (
	"context"

	"vpsec/internal/isa"
	"vpsec/internal/stats"
)

// The threat model (Sec. II) says the trigger miss "is assumed to
// occur naturally ... or can be forced by a malicious attacker that
// invalidates or flushes the cache". The main kernels use FLUSH
// (clflush); this file provides the *eviction-set* form for platforms
// without a user-level flush: the kernel walks enough conflicting
// lines to push the target out of both cache levels by capacity.

// evStride aliases both the default L1 set (64 sets x 64 B = 4 KiB)
// and the default L2 set (512 sets x 64 B = 32 KiB).
const evStride = 512 * 64

// evWays exceeds both associativities (8).
const evWays = 9

// buildEvictionKernel is buildKernel with the FLUSH of the target
// replaced by an eviction-set walk. All kernels of this family share
// their attacked-load PC (returned alongside the program), so
// train/modify/trigger steps built from it collide in a PC-indexed VPS
// exactly like the FLUSH-based family.
func buildEvictionKernel(p kernelParams) (*isa.Program, int, error) {
	b := isa.NewBuilder(p.name)
	if p.setValue {
		b.Word(p.target, p.value)
	}
	b.PadTo(p.skew)
	b.MovI(isa.R1, int64(p.target))
	b.MovI(isa.R9, int64(p.depBase))
	b.MovI(isa.R10, int64(p.results))
	b.MovI(isa.R15, evStride)
	b.MovI(isa.R3, 0)
	b.MovI(isa.R4, int64(p.iters))
	b.Label("loop")
	// Evict the target's set by walking evWays conflicting lines.
	b.AddI(isa.R16, isa.R1, evStride)
	b.MovI(isa.R17, 0)
	b.MovI(isa.R18, evWays)
	b.Label("evict")
	b.Load(isa.R19, isa.R16, 0)
	b.Add(isa.R16, isa.R16, isa.R15)
	b.AddI(isa.R17, isa.R17, 1)
	b.Blt(isa.R17, isa.R18, "evict")
	b.Fence()
	b.Rdtsc(isa.R20)
	loadPC := b.PC()
	b.Load(isa.R2, isa.R1, 0) // the attacked load
	b.AndI(isa.R5, isa.R2, valueMask)
	b.ShlI(isa.R5, isa.R5, probeShift)
	b.Add(isa.R6, isa.R9, isa.R5)
	b.Load(isa.R7, isa.R6, 0) // dependent load
	b.Fence()
	b.Rdtsc(isa.R21)
	b.Sub(isa.R22, isa.R21, isa.R20)
	b.ShlI(isa.R11, isa.R3, 3)
	b.Add(isa.R12, isa.R10, isa.R11)
	b.Store(isa.R12, 0, isa.R22)
	// The dependent line is still evicted the precise way; the point of
	// this kernel is the *target* miss without CLFLUSH.
	b.Flush(isa.R6, 0)
	b.Fence()
	b.AddI(isa.R3, isa.R3, 1)
	b.Blt(isa.R3, isa.R4, "loop")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	return prog, loadPC, nil
}

// runEvictionKernel builds and runs an eviction-family kernel.
func (e *env) runEvictionKernel(pid uint64, p kernelParams, physBase uint64) ([]uint64, int, error) {
	prog, loadPC, err := buildEvictionKernel(p)
	if err != nil {
		return nil, 0, err
	}
	proc := e.nextProc()
	if err := e.m.InitProcess(proc, pid, prog, physBase); err != nil {
		return nil, 0, err
	}
	if _, err := e.m.Run(proc); err != nil {
		return nil, 0, err
	}
	times := make([]uint64, p.iters)
	for i := range times {
		times[i] = e.m.Hier.Mem.Peek(physBase + p.results + uint64(8*i))
	}
	return times, loadPC, nil
}

// trialTrainTestEviction is the Train+Test timing-window trial with
// all misses forced by eviction sets instead of CLFLUSH.
func (e *env) trialTrainTestEviction(mapped bool) (float64, error) {
	if _, _, err := e.runEvictionKernel(2, kernelParams{
		name: "ev-train", target: knownAddr, value: knownValue, setValue: true,
		iters: e.conf, depBase: probeBase, results: resultsB,
	}, recvPhys); err != nil {
		return 0, err
	}
	skew := pcSkew
	if mapped {
		skew = 0
	}
	if _, _, err := e.runEvictionKernel(1, kernelParams{
		name: "ev-modify", target: secretAddr, value: senderValue, setValue: true,
		iters: e.conf, depBase: probeBase, results: resultsA, skew: skew,
	}, senderPhys); err != nil {
		return 0, err
	}
	e.flushProbeRegion(recvPhys)
	times, _, err := e.runEvictionKernel(2, kernelParams{
		name: "ev-trigger", target: knownAddr,
		iters: 1, depBase: probeBase, results: resultsB,
	}, recvPhys)
	if err != nil {
		return 0, err
	}
	return float64(times[0]), nil
}

// RunTrainTestEviction evaluates the eviction-based Train+Test over
// opt.Runs trials per case. Trials run opt.Jobs at a time (see
// Options.Jobs); the result is byte-identical at any worker count.
// ctx aborts in-flight trials and surfaces ctx.Err().
func RunTrainTestEviction(ctx context.Context, opt Options) (CaseResult, error) {
	opt.setDefaults()
	res := CaseResult{Category: "Train + Test (eviction)", Channel: opt.Channel, Opt: opt}
	_, err := runCaseTrials(ctx, &opt, &res, true,
		func(e *env, mapped bool) (float64, uint64, error) {
			obs, err := e.trialTrainTestEviction(mapped)
			return obs, 0, err
		})
	if err != nil {
		return res, err
	}
	if err := res.finalizeStats(); err != nil {
		return res, err
	}
	res.publishCase(opt.Metrics)
	return res, nil
}

// finalizeStats fills the test statistics from the observation sets.
func (r *CaseResult) finalizeStats() error {
	t, err := stats.WelchTTest(r.Mapped, r.Unmapped)
	if err != nil {
		return err
	}
	r.T = t
	r.P = t.P
	mw, err := stats.MannWhitneyU(r.Mapped, r.Unmapped)
	if err != nil {
		return err
	}
	r.MWp = mw.P
	r.SuccessRate = successRate(r.Mapped, r.Unmapped)
	return nil
}
