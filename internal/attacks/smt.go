package attacks

import (
	"context"
	"fmt"

	"vpsec/internal/core"
	"vpsec/internal/isa"
	"vpsec/internal/stats"
)

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

// samplerPhys places the co-runner's memory away from both parties.
const samplerPhys = 3 << 30

// trialTestHitVolatileSMT is trialTestHitVolatile with the co-runner
// observation: train as usual, then run the receiver's trigger and the
// sampler simultaneously. The observation is the total sampler window
// time — larger when the transient burst contends for the shared
// ports.
func (e *env) trialTestHitVolatileSMT(mapped bool) (float64, uint64, error) {
	var total uint64
	secretBit := uint64(0)
	if mapped {
		secretBit = 1
	}
	_, res, err := e.runKernel(1, kernelParams{
		name: "thvs-train", target: secretAddr, value: secretBit, setValue: true,
		iters: e.conf, flush: true, depBase: probeBase, flushDep: true,
		results: resultsA,
	}, senderPhys)
	if err != nil {
		return 0, 0, err
	}
	total += res.Cycles

	// Normalize the secret-dependent cache residue of the training step
	// (the trained value selects which probe line the sender touched):
	// the volatile control must isolate the predictor channel from that
	// unrelated cache channel.
	e.flushProbeRegion(senderPhys)

	obs, cyc, err := e.runTriggerWithSampler(2, kernelParams{
		name: "thvs-trigger", target: knownAddr, value: 0, setValue: true,
		iters: 1, flush: true, results: resultsB,
	}, recvPhys)
	if err != nil {
		return 0, 0, err
	}
	return obs, total + cyc, nil
}

// runTriggerWithSampler runs the volatile trigger kernel and the
// sampler as simultaneous SMT threads and returns the receiver's
// observation: the summed sampler window latencies (larger when the
// trigger's transient parity burst contends for the shared ports).
func (e *env) runTriggerWithSampler(pid uint64, p kernelParams, physBase uint64) (float64, uint64, error) {
	trigger, err := buildVolatileKernel(p)
	if err != nil {
		return 0, 0, err
	}
	victim := e.nextProc()
	if err := e.m.InitProcess(victim, pid, trigger, physBase); err != nil {
		return 0, 0, err
	}
	samp, err := buildSampler()
	if err != nil {
		return 0, 0, err
	}
	sampler := e.nextProc()
	if err := e.m.InitProcess(sampler, 5, samp, samplerPhys); err != nil {
		return 0, 0, err
	}
	rv, rs, err := e.m.RunSMT(victim, sampler)
	if err != nil {
		return 0, 0, err
	}
	var obs float64
	for i := 0; i < samplerWindows; i++ {
		obs += float64(e.m.Hier.Mem.Peek(samplerPhys + samplerResults + uint64(8*i)))
	}
	return obs, rv.Cycles + rs.Cycles, nil
}

// trialTrainTestVolatileSMT is trialTrainTestVolatile with the honest
// co-runner observation: the receiver trains its known (odd) value,
// the sender's secret-dependent modify step retrains the shared entry
// with its even value iff mapped, and the receiver's own trigger then
// runs against the sampler. Unmapped (entry still odd) fires the
// parity burst; mapped suppresses it — the sampler's stretched windows
// carry the bit.
func (e *env) trialTrainTestVolatileSMT(mapped bool) (float64, uint64, error) {
	var total uint64
	_, res, err := e.runKernel(2, kernelParams{
		name: "ttvs-train", target: knownAddr, value: knownValue, setValue: true,
		iters: e.train, flush: true, depBase: probeBase, flushDep: true,
		results: resultsB,
	}, recvPhys)
	if err != nil {
		return 0, 0, err
	}
	total += res.Cycles

	skew := pcSkew
	if mapped {
		skew = 0
	}
	_, res, err = e.runKernel(1, kernelParams{
		name: "ttvs-modify", target: secretAddr, value: senderValue, setValue: true,
		iters: e.conf, flush: true, depBase: probeBase, flushDep: true,
		results: resultsA, skew: skew,
	}, senderPhys)
	if err != nil {
		return 0, 0, err
	}
	total += res.Cycles

	e.flushProbeRegion(recvPhys)
	obs, cyc, err := e.runTriggerWithSampler(2, kernelParams{
		name: "ttvs-trigger", target: knownAddr,
		iters: 1, flush: true, results: resultsB,
	}, recvPhys)
	if err != nil {
		return 0, 0, err
	}
	return obs, total + cyc, nil
}

// trialFillUpVolatileSMT is trialFillUpVolatile with the honest
// co-runner observation. Fill Up is internal interference — training
// and trigger are both the sender's own — so here the *sender's* own
// trigger thread runs against the sampler: the predicted D' parity
// (odd = mapped) gates the burst the co-runner feels.
func (e *env) trialFillUpVolatileSMT(mapped bool) (float64, uint64, error) {
	var total uint64
	dPrime := uint64(senderValue) // 0x22, even
	if mapped {
		dPrime = secretValue2 // 0x23, odd
	}
	_, res, err := e.runKernel(1, kernelParams{
		name: "fuvs-train", target: secretAddr, value: dPrime, setValue: true,
		iters: e.train, flush: true, depBase: probeBase, flushDep: true,
		results: resultsA,
	}, senderPhys)
	if err != nil {
		return 0, 0, err
	}
	total += res.Cycles

	e.writeWord(senderPhys, secretAddr, senderValue)
	e.flushProbeRegion(senderPhys)
	obs, cyc, err := e.runTriggerWithSampler(1, kernelParams{
		name: "fuvs-trigger", target: secretAddr,
		iters: 1, flush: true, results: resultsA,
	}, senderPhys)
	if err != nil {
		return 0, 0, err
	}
	return obs, total + cyc, nil
}

// RunTestHitVolatileSMT evaluates the SMT co-runner variant of the
// Test+Hit volatile channel over opt.Runs trials per case and returns
// the standard case result.
func RunTestHitVolatileSMT(ctx context.Context, opt Options) (CaseResult, error) {
	return RunVolatileSMT(ctx, core.TestHit, opt)
}

// RunVolatileSMT evaluates the SMT co-runner volatile channel for the
// categories with an SMT variant (Test+Hit, Train+Test and Fill Up)
// over opt.Runs trials per case and returns the standard case result.
// Trials run opt.Jobs at a time (see Options.Jobs); the result is
// byte-identical at any worker count. ctx aborts in-flight trials and
// surfaces ctx.Err().
func RunVolatileSMT(ctx context.Context, cat core.Category, opt Options) (CaseResult, error) {
	opt.setDefaults()
	opt.Channel = core.Volatile
	res := CaseResult{Category: cat, Channel: core.Volatile, Opt: opt}
	var trial func(e *env, mapped bool) (float64, uint64, error)
	switch cat {
	case core.TestHit:
		trial = (*env).trialTestHitVolatileSMT
	case core.TrainTest:
		trial = (*env).trialTrainTestVolatileSMT
	case core.FillUp:
		trial = (*env).trialFillUpVolatileSMT
	default:
		return res, fmt.Errorf("attacks: %v has no SMT volatile variant", cat)
	}
	totalCycles, err := runCaseTrials(ctx, &opt, &res, true, trial)
	if err != nil {
		return res, err
	}
	t, err := stats.WelchTTest(res.Mapped, res.Unmapped)
	if err != nil {
		return res, err
	}
	res.T = t
	res.P = t.P
	mw, err := stats.MannWhitneyU(res.Mapped, res.Unmapped)
	if err != nil {
		return res, err
	}
	res.MWp = mw.P
	res.MeanCyc = totalCycles / float64(2*opt.Runs)
	den := res.MeanCyc
	if !opt.NoSyncCost {
		den += opt.SyncEpoch
	}
	res.RateBps = opt.ClockHz / den
	res.SuccessRate = successRate(res.Mapped, res.Unmapped)
	res.publishCase(opt.Metrics)
	return res, nil
}
