package attacks

import (
	"context"
	"math/rand"
	"testing"

	"vpsec/internal/core"
	"vpsec/internal/cpu"
	"vpsec/internal/isa"
	"vpsec/internal/mem"
	"vpsec/internal/predictor"
	"vpsec/internal/stats"
)

// TestStridePredictorAlsoLeaks extends Sec. IV-D3: the attacks rely
// only on confidence-gated prediction of repeated values, so the
// stride predictor (zero-stride case) is equally vulnerable.
func TestStridePredictorAlsoLeaks(t *testing.T) {
	for _, pk := range []PredictorKind{Stride, FCM} {
		for _, cat := range []core.Category{core.TrainTest, core.TestHit, core.FillUp} {
			r := runCase(t, cat, testOpt(core.TimingWindow, pk))
			if !r.Effective() {
				t.Errorf("%v with %v predictor: p=%.4f, want effective", cat, pk, r.P)
			}
		}
	}
}

// TestPIDIndexingScopesAttacks is the Sec. V-B ablation: adding the
// pid to the predictor index kills the cross-process variants (sender
// and receiver no longer collide) but cannot stop internal-interference
// attacks, where every access is the sender's own ("using pid only
// increases difficulties for attacks but does not eliminate it").
func TestPIDIndexingScopesAttacks(t *testing.T) {
	crossProcess := []core.Category{core.TrainTest, core.TestHit, core.ModifyTest}
	internal := []core.Category{core.TrainHit, core.SpillOver, core.FillUp}

	for _, cat := range crossProcess {
		opt := testOpt(core.TimingWindow, LVP)
		opt.UsePID = true
		r := runCase(t, cat, opt)
		if r.Effective() {
			t.Errorf("%v with pid indexing: p=%.4f, cross-process collision should be gone", cat, r.P)
		}
	}
	for _, cat := range internal {
		opt := testOpt(core.TimingWindow, LVP)
		opt.UsePID = true
		r := runCase(t, cat, opt)
		if !r.Effective() {
			t.Errorf("%v with pid indexing: p=%.4f, internal interference should survive", cat, r.P)
		}
	}
}

// TestPhysAddrIndexingNeedsSharedMemory is footnote 1's observation:
// a physical-address-indexed predictor sees no collision between the
// private mappings of two processes, while same-process training still
// predicts.
func TestPhysAddrIndexingNeedsSharedMemory(t *testing.T) {
	lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2, Scheme: predictor.ByPhysAddr})
	if err != nil {
		t.Fatal(err)
	}
	m, err := cpu.NewMachine(cpu.Config{}, mem.DefaultHierarchy(), lvp, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}

	train := kernelParams{
		name: "pa-train", target: knownAddr, value: 7, setValue: true,
		iters: 4, flush: true, depBase: dummyAddr, results: resultsA,
	}
	prog, err := buildKernel(train)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := m.NewProcess(1, prog, senderPhys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(sender); err != nil {
		t.Fatal(err)
	}

	// Receiver at a different physical base: same virtual layout, no
	// predictor collision.
	trigger := kernelParams{
		name: "pa-trigger", target: knownAddr, value: 7, setValue: true,
		iters: 1, flush: true, depBase: dummyAddr, results: resultsB,
	}
	tprog, err := buildKernel(trigger)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := m.NewProcess(2, tprog, recvPhys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(recv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predictions != 0 {
		t.Errorf("private mappings collided under phys-addr indexing (%d predictions)", res.Predictions)
	}

	// A shared mapping (same physical base) restores the collision.
	shared, err := m.NewProcess(3, tprog, senderPhys)
	if err != nil {
		t.Fatal(err)
	}
	res, err = m.Run(shared)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predictions == 0 {
		t.Error("shared mapping should collide under phys-addr indexing")
	}
}

// TestPrefetcherDegradesAdjacentPersistentChannel: with a next-line
// prefetcher, a transient probe touch also warms the neighboring line
// into the L2. The Train+Test persistent variant probes a line
// *adjacent* to the trained value's line (the PoC values are
// pointer-like, Δ=1), so its unmapped case collapses from a DRAM miss
// (~165 cycles) to an L2 hit (~15): the channel survives only because
// L1 and L2 hits remain distinguishable — a much smaller margin an OS
// noise floor would erase. Test+Hit's candidate sits 4 lines away and
// keeps the full DRAM contrast; timing-window variants are unaffected.
func TestPrefetcherDegradesAdjacentPersistentChannel(t *testing.T) {
	base := testOpt(core.Persistent, LVP)
	base.Runs = 40
	noPf := runCase(t, core.TrainTest, base)

	opt := base
	opt.Prefetch = true
	tt := runCase(t, core.TrainTest, opt)
	if !tt.Effective() {
		t.Errorf("Train+Test persistent with prefetcher: p=%.4f (L1-vs-L2 margin gone?)", tt.P)
	}
	withMean := stats.Summarize(tt.Unmapped).Mean
	withoutMean := stats.Summarize(noPf.Unmapped).Mean
	if withoutMean < 100 {
		t.Fatalf("baseline unmapped probe should be a DRAM miss, got %.0f", withoutMean)
	}
	if withMean > 60 {
		t.Errorf("prefetcher should warm the adjacent candidate into L2: unmapped probe %.0f cycles", withMean)
	}

	th := runCase(t, core.TestHit, opt)
	if !th.Effective() {
		t.Errorf("Test+Hit persistent with prefetcher: p=%.4f, expected still effective", th.P)
	}
	if m := stats.Summarize(th.Unmapped).Mean; m < 100 {
		t.Errorf("Test+Hit candidate (4 lines away) should keep the DRAM contrast, got %.0f", m)
	}

	twOpt := testOpt(core.TimingWindow, LVP)
	twOpt.Prefetch = true
	tw := runCase(t, core.TrainTest, twOpt)
	if !tw.Effective() {
		t.Errorf("Train+Test timing-window with prefetcher: p=%.4f, expected effective", tw.P)
	}
}

// TestTrainTestResetModifyVariant covers the paper's 1-access modify
// form of Train+Test (Sec. IV-A): the sender's single conflicting
// access resets the entry's confidence, so the mapped trigger sees
// *no prediction* — the new no-prediction-vs-correct-prediction
// contrast — rather than a misprediction.
func TestTrainTestResetModifyVariant(t *testing.T) {
	for _, cat := range []core.Category{core.TrainTest, core.ModifyTest} {
		opt := testOpt(core.TimingWindow, LVP)
		opt.ResetModify = true
		r := runCase(t, cat, opt)
		if !r.Effective() {
			t.Errorf("%v (1-access modify): p=%.4f, want effective", cat, r.P)
		}
		// The mapped case is a no-prediction (serialized misses), which
		// is FASTER than the misprediction of the confidence-count
		// variant by roughly the squash penalty.
		full := runCase(t, cat, testOpt(core.TimingWindow, LVP))
		resetMean := stats.Summarize(r.Mapped).Mean
		wrongMean := stats.Summarize(full.Mapped).Mean
		if resetMean >= wrongMean {
			t.Errorf("%v: no-prediction trigger (%.0f) should be faster than misprediction (%.0f)",
				cat, resetMean, wrongMean)
		}
	}
}

// TestTrainTestSenderTrainedVariant exercises the S^KI, S^SI', R^KI
// row of Table II: the *sender* trains the known (shared-library)
// index, its secret access modifies, and the receiver triggers. Both
// parties know the shared data value, so the receiver's trigger still
// distinguishes correct prediction from misprediction.
func TestTrainTestSenderTrainedVariant(t *testing.T) {
	opt := testOpt(core.TimingWindow, LVP)
	opt.setDefaults() // this test drives env/kernels directly, not Run()
	runTrial := func(mapped bool, seed int64) float64 {
		o := opt
		e, err := newEnv(&o, seed)
		if err != nil {
			t.Fatal(err)
		}
		// 1) Train: the SENDER establishes the known-index state (the
		// known data is shared, so both processes hold knownValue).
		if _, _, err := e.runKernel(1, kernelParams{
			name: "stt-train", target: knownAddr, value: knownValue, setValue: true,
			iters: o.Confidence, flush: true, depBase: probeBase, flushDep: true,
			results: resultsA,
		}, senderPhys); err != nil {
			t.Fatal(err)
		}
		// 2) Modify: the sender's secret-dependent access.
		skew := pcSkew
		if mapped {
			skew = 0
		}
		if _, _, err := e.runKernel(1, kernelParams{
			name: "stt-modify", target: secretAddr, value: senderValue, setValue: true,
			iters: o.Confidence, flush: true, depBase: probeBase, flushDep: true,
			results: resultsA, skew: skew,
		}, senderPhys); err != nil {
			t.Fatal(err)
		}
		// 3) Trigger: the receiver probes the shared index.
		e.flushProbeRegion(recvPhys)
		times, _, err := e.runKernel(2, kernelParams{
			name: "stt-trigger", target: knownAddr, value: knownValue, setValue: true,
			iters: 1, flush: true, depBase: probeBase, flushDep: false,
			results: resultsB,
		}, recvPhys)
		if err != nil {
			t.Fatal(err)
		}
		return float64(times[0])
	}
	var mappedObs, unmappedObs []float64
	for i := int64(0); i < 25; i++ {
		mappedObs = append(mappedObs, runTrial(true, 900+i))
		unmappedObs = append(unmappedObs, runTrial(false, 2900+i))
	}
	res, err := stats.WelchTTest(mappedObs, unmappedObs)
	if err != nil {
		t.Fatal(err)
	}
	if res.P >= 0.05 {
		t.Errorf("sender-trained Train+Test variant p=%.4f, want effective", res.P)
	}
}

// TestConfidenceSweep: the attacks adapt to the VPS confidence number
// (their train steps make exactly that many accesses), so they stay
// effective from threshold 2 through 8 while the per-bit cost grows.
func TestConfidenceSweep(t *testing.T) {
	base := testOpt(core.TimingWindow, LVP)
	base.NoSyncCost = true // expose the raw per-trial cost
	pts, err := ConfidenceSweep(context.Background(), core.TrainTest, []int{2, 4, 8}, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.P >= 0.05 {
			t.Errorf("confidence %d: p=%.4f, want effective", p.Confidence, p.P)
		}
	}
	if !(pts[0].RateBps > pts[1].RateBps && pts[1].RateBps > pts[2].RateBps) {
		t.Errorf("raw rate should fall with training cost: %+v", pts)
	}
	if _, err := ConfidenceSweep(context.Background(), core.TrainTest, []int{0}, base); err == nil {
		t.Error("confidence 0 should fail")
	}
}

// TestEvictionBasedTrainTest reproduces the threat model's alternative
// miss-forcing mechanism: no CLFLUSH at all — the attacker walks a
// 9-line eviction set through the target's L1 and L2 sets. The attack
// works identically (Sec. II: the miss "can be forced by a malicious
// attacker that invalidates or flushes the cache").
func TestEvictionBasedTrainTest(t *testing.T) {
	vp, err := RunTrainTestEviction(context.Background(), Options{Predictor: LVP, Channel: core.TimingWindow, Runs: 25, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if !vp.Effective() {
		t.Errorf("eviction-based Train+Test with LVP: p=%.4f, want effective", vp.P)
	}
	if vp.SuccessRate < 0.9 {
		t.Errorf("success %.2f, want >= 0.9", vp.SuccessRate)
	}
	novp, err := RunTrainTestEviction(context.Background(), Options{Predictor: NoVP, Channel: core.TimingWindow, Runs: 25, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if novp.Effective() {
		t.Errorf("eviction-based Train+Test without VP: p=%.4f, want ineffective", novp.P)
	}
}

// TestNoiseRobustness: the Train+Test timing-window attack keeps
// working under heavy memory-latency jitter (its separation is ~170
// cycles); success degrades monotonically-ish as jitter grows past the
// signal.
func TestNoiseRobustness(t *testing.T) {
	base := testOpt(core.TimingWindow, LVP)
	base.Runs = 40
	pts, err := NoiseSweep(context.Background(), core.TrainTest, []uint64{12, 80, 200, 600}, base)
	if err != nil {
		t.Fatal(err)
	}
	if !(pts[0].P < 0.05 && pts[1].P < 0.05 && pts[2].P < 0.05) {
		t.Errorf("attack should survive jitter up to ~200 cycles: %+v", pts)
	}
	if pts[0].Success < pts[3].Success {
		t.Errorf("success should not improve with more noise: %+v", pts)
	}
}

// TestSelectiveReplayDoesNotStopAttacks: recovering from value
// mispredictions by selective replay (instead of the paper's full
// squash) shrinks the misprediction penalty but leaves the
// correct-prediction-vs-rest contrast, so the attacks survive the
// recovery-mechanism choice.
func TestSelectiveReplayDoesNotStopAttacks(t *testing.T) {
	for _, cat := range []core.Category{core.TrainTest, core.TestHit, core.SpillOver} {
		opt := testOpt(core.TimingWindow, LVP)
		opt.Replay = true
		r := runCase(t, cat, opt)
		if !r.Effective() {
			t.Errorf("%v under selective replay: p=%.4f, want effective", cat, r.P)
		}
	}
	// The misprediction latency shrinks versus full squash.
	full := runCase(t, core.TrainTest, testOpt(core.TimingWindow, LVP))
	opt := testOpt(core.TimingWindow, LVP)
	opt.Replay = true
	rep := runCase(t, core.TrainTest, opt)
	if stats.Summarize(rep.Mapped).Mean >= stats.Summarize(full.Mapped).Mean {
		t.Errorf("replay mispredict latency %.0f should be below full-squash %.0f",
			stats.Summarize(rep.Mapped).Mean, stats.Summarize(full.Mapped).Mean)
	}
}

// TestSpectreViaValuePredictedBound covers Fig. 2's right-hand column:
// value prediction composing with a regular transient-execution
// attack. The bounds check itself is architecturally correct — the
// branch predictor needs no mistraining — but the bound is a load that
// the VPS keeps predicting at its stale, larger value after the array
// shrinks, so an out-of-bounds body runs transiently and encodes
// a[secretIdx] into the cache.
func TestSpectreViaValuePredictedBound(t *testing.T) {
	const (
		lenAddr   = 0x1000
		arrayBase = 0x2000
		oobIdx    = 8
		probe     = 0x40000
		oldLen    = 16
		newLen    = 1
		secret    = 42
	)
	build := func(indices []uint64) *isa.Program {
		b := isa.NewBuilder("bounds-read")
		b.Word(lenAddr, oldLen)
		b.Word(arrayBase+8*oobIdx, secret)
		for i, idx := range indices {
			b.Word(0x6000+uint64(8*i), idx)
		}
		b.MovI(isa.R1, lenAddr)
		b.MovI(isa.R2, arrayBase)
		b.MovI(isa.R9, probe)
		b.MovI(isa.R10, 0x6000)
		b.MovI(isa.R3, 0)
		b.MovI(isa.R4, int64(len(indices)))
		b.Label("call")
		b.ShlI(isa.R11, isa.R3, 3)
		b.Add(isa.R11, isa.R10, isa.R11)
		b.Load(isa.R12, isa.R11, 0)
		b.Flush(isa.R1, 0)
		b.Fence()
		b.Load(isa.R5, isa.R1, 0) // the value-predicted bound
		b.Blt(isa.R12, isa.R5, "body")
		b.Jmp("skip")
		// The body sits on the TAKEN path: fetch cannot reach it until
		// the bounds branch resolves, and the branch needs the (value-
		// predicted) bound. Without a prediction the real bound arrives
		// with the miss and the out-of-bounds body never runs.
		b.Label("body")
		b.ShlI(isa.R6, isa.R12, 3)
		b.Add(isa.R6, isa.R2, isa.R6)
		b.Load(isa.R7, isa.R6, 0)
		b.AndI(isa.R8, isa.R7, 0x3f)
		b.ShlI(isa.R8, isa.R8, 6)
		b.Add(isa.R8, isa.R9, isa.R8)
		b.Load(isa.R13, isa.R8, 0)
		b.Label("skip")
		b.Fence()
		b.AddI(isa.R3, isa.R3, 1)
		b.Blt(isa.R3, isa.R4, "call")
		b.Halt()
		return b.MustBuild()
	}
	run := func(pred predictor.Predictor) (hot int, squashes uint64) {
		m, err := cpu.NewMachine(cpu.Config{}, mem.DefaultHierarchy(), pred, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		proc, err := m.NewProcess(1, build([]uint64{1, 2, 3, 4}), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(proc); err != nil {
			t.Fatal(err)
		}
		// The array shrinks; the VPS entry still holds the old bound.
		// The secret's line is warm (the victim used the element while
		// it was still in bounds) — a cold line would shrink the
		// transient window below the two-level dependent chain.
		m.Hier.Access(arrayBase+8*oobIdx, true)
		m.Hier.Mem.Write(lenAddr, newLen)
		m.Hier.Flush(lenAddr)
		for v := uint64(0); v < 64; v++ {
			m.Hier.Flush(probe + v*64)
		}
		oob, err := m.NewProcess(1, build([]uint64{oobIdx}), 0)
		if err != nil {
			t.Fatal(err)
		}
		m.Hier.Mem.Write(lenAddr, newLen) // NewProcess re-wrote the data word
		m.Hier.Flush(lenAddr)
		res, err := m.Run(oob)
		if err != nil {
			t.Fatal(err)
		}
		hot = -1
		for v := uint64(0); v < 64; v++ {
			if m.Hier.Cached(probe + v*64) {
				hot = int(v)
			}
		}
		return hot, res.VerifyWrong
	}

	lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 4})
	if err != nil {
		t.Fatal(err)
	}
	hot, squashes := run(lvp)
	if hot != secret&0x3f {
		t.Errorf("probe line %d hot, want the secret %d", hot, secret&0x3f)
	}
	if squashes == 0 {
		t.Error("the stale bound must eventually mispredict and squash")
	}
	// Without a predictor the bounds check holds transiently too.
	hotNone, _ := run(predictor.NewNone())
	if hotNone != -1 {
		t.Errorf("no-VP control leaked probe line %d", hotNone)
	}
}
