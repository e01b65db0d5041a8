package attacks

import (
	"context"
	"fmt"

	"vpsec/internal/core"
	"vpsec/internal/stats"
)

// This file makes every row of Table II individually executable: the
// twelve variants differ from their category's headline trial only in
// *which party* performs the known-data/known-index steps (the paper's
// S vs R superscripts; with no pid in the index, either party's access
// reaches the shared entry — Sec. V-B). The observation is always
// available to the receiver: its own timing for R-trigger rows,
// the sender's execution time for S-trigger rows (internal
// interference, Sec. II).

func partyPhys(p core.Party) uint64 {
	if p == core.Sender {
		return senderPhys
	}
	return recvPhys
}

func partyPID(p core.Party) uint64 {
	if p == core.Sender {
		return 1
	}
	return 2
}

func partyResults(p core.Party) uint64 {
	if p == core.Sender {
		return resultsA
	}
	return resultsB
}

// variantTrial executes one Table II pattern end to end and returns
// the receiver's observation (timing-window channel).
func (e *env) variantTrial(v core.Variant, mapped bool) (float64, error) {
	pat := v.Pattern
	switch v.Category {
	case core.TrainTest:
		// (train K-index by P1, modify S^SI', trigger K-index by P2)
		p1, p2 := pat.Train.Party, pat.Trigger.Party
		if _, _, err := e.runKernel(partyPID(p1), kernelParams{
			name: "v-train", target: knownAddr, value: knownValue, setValue: true,
			iters: e.conf, flush: true, depBase: probeBase, flushDep: true,
			results: partyResults(p1),
		}, partyPhys(p1)); err != nil {
			return 0, err
		}
		skew := pcSkew
		if mapped {
			skew = 0
		}
		if _, _, err := e.runKernel(1, kernelParams{
			name: "v-modify", target: secretAddr, value: senderValue, setValue: true,
			iters: e.conf, flush: true, depBase: probeBase, flushDep: true,
			results: resultsA, skew: skew,
		}, senderPhys); err != nil {
			return 0, err
		}
		e.flushProbeRegion(partyPhys(p2))
		times, _, err := e.runKernel(partyPID(p2), kernelParams{
			name: "v-trigger", target: knownAddr, value: knownValue, setValue: true,
			iters: 1, flush: true, depBase: probeBase, flushDep: false,
			results: partyResults(p2),
		}, partyPhys(p2))
		if err != nil {
			return 0, err
		}
		return float64(times[0]), nil

	case core.ModifyTest:
		// (train S^SI', modify K-index by P, trigger S^SI')
		p := pat.Modify.Party
		skew := pcSkew
		if mapped {
			skew = 0
		}
		if _, _, err := e.runKernel(1, kernelParams{
			name: "v-train", target: secretAddr, value: senderValue, setValue: true,
			iters: e.conf, flush: true, depBase: probeBase, flushDep: true,
			results: resultsA, skew: skew,
		}, senderPhys); err != nil {
			return 0, err
		}
		if _, _, err := e.runKernel(partyPID(p), kernelParams{
			name: "v-modify", target: knownAddr, value: knownValue, setValue: true,
			iters: e.conf, flush: true, depBase: probeBase, flushDep: true,
			results: partyResults(p),
		}, partyPhys(p)); err != nil {
			return 0, err
		}
		e.flushProbeRegion(senderPhys)
		times, _, err := e.runKernel(1, kernelParams{
			name: "v-trigger", target: secretAddr,
			iters: 1, flush: true, depBase: probeBase, flushDep: false,
			results: resultsA, skew: skew,
		}, senderPhys)
		if err != nil {
			return 0, err
		}
		return float64(times[0]), nil

	case core.TrainHit:
		// (train K-data by P, trigger S^SD'): the entry is trained with
		// commonly-known data; the sender's secret access is timed.
		p := pat.Train.Party
		if _, _, err := e.runKernel(partyPID(p), kernelParams{
			name: "v-train", target: knownAddr, value: knownValue, setValue: true,
			iters: e.conf, flush: true, depBase: probeBase, flushDep: true,
			results: partyResults(p),
		}, partyPhys(p)); err != nil {
			return 0, err
		}
		secret := uint64(knownValue)
		if !mapped {
			secret = senderValue
		}
		e.writeWord(senderPhys, secretAddr, secret)
		e.flushProbeRegion(senderPhys)
		times, _, err := e.runKernel(1, kernelParams{
			name: "v-trigger", target: secretAddr,
			iters: 1, flush: true, depBase: probeBase, flushDep: false,
			results: resultsA,
		}, senderPhys)
		if err != nil {
			return 0, err
		}
		return float64(times[0]), nil

	case core.TestHit:
		// (train S^SD', trigger K-data by P).
		p := pat.Trigger.Party
		const knownBit = 0
		secretBit := uint64(secretAltBit)
		if mapped {
			secretBit = knownBit
		}
		if _, _, err := e.runKernel(1, kernelParams{
			name: "v-train", target: secretAddr, value: secretBit, setValue: true,
			iters: e.conf, flush: true, depBase: probeBase, flushDep: true,
			results: resultsA,
		}, senderPhys); err != nil {
			return 0, err
		}
		e.flushProbeRegion(partyPhys(p))
		times, _, err := e.runKernel(partyPID(p), kernelParams{
			name: "v-trigger", target: knownAddr, value: knownBit, setValue: true,
			iters: 1, flush: true, depBase: probeBase, flushDep: false,
			results: partyResults(p),
		}, partyPhys(p))
		if err != nil {
			return 0, err
		}
		return float64(times[0]), nil

	case core.SpillOver, core.FillUp:
		// Single-row categories: reuse the headline trials.
		obs, _, err := e.trial(v.Category, mapped, core.TimingWindow)
		return obs, err
	}
	return 0, fmt.Errorf("attacks: no trial for category %v", v.Category)
}

// RunVariant evaluates one specific Table II pattern over the
// timing-window channel. Trials run opt.Jobs at a time (see
// Options.Jobs); the result is byte-identical at any worker count.
// ctx aborts in-flight trials and surfaces ctx.Err().
func RunVariant(ctx context.Context, v core.Variant, opt Options) (CaseResult, error) {
	opt.setDefaults()
	opt.Channel = core.TimingWindow
	res := CaseResult{Category: v.Category, Channel: core.TimingWindow, Opt: opt}
	totalCycles, err := runCaseTrials(ctx, &opt, &res, false,
		func(e *env, mapped bool) (float64, uint64, error) {
			obs, err := e.variantTrial(v, mapped)
			// Each trial runs on a fresh machine, so the machine's cycle
			// counter is the trial's total simulated time.
			return obs, e.m.Cycle, err
		})
	if err != nil {
		return res, err
	}
	t, err := stats.WelchTTest(res.Mapped, res.Unmapped)
	if err != nil {
		return res, err
	}
	res.T = t
	res.P = t.P
	res.MeanCyc = totalCycles / float64(2*opt.Runs)
	den := res.MeanCyc
	if !opt.NoSyncCost {
		den += opt.SyncEpoch
	}
	res.RateBps = opt.ClockHz / den
	res.SuccessRate = successRate(res.Mapped, res.Unmapped)
	return res, nil
}

// FindVariant returns the Table II variant whose pattern renders as
// patternString (e.g. "R^KI, S^SI', R^KI").
func FindVariant(patternString string) (core.Variant, error) {
	for _, v := range core.Reduce() {
		if v.Pattern.String() == patternString {
			return v, nil
		}
	}
	return core.Variant{}, fmt.Errorf("attacks: no Table II pattern %q", patternString)
}
