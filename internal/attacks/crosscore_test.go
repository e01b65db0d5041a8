package attacks

import (
	"math/rand"
	"testing"

	"vpsec/internal/cpu"
	"vpsec/internal/mem"
	"vpsec/internal/predictor"
	"vpsec/internal/stats"
)

// TestCrossCoreScoping pins down the threat model's "same core or
// different cores" sentence (Sec. II). The value predictor is a
// per-core structure, so:
//
//   - a receiver on another core gets NO prediction from the sender's
//     training (the cross-process Train+Test collision needs a shared
//     core or SMT);
//   - internal-interference attacks survive: all predictor steps are
//     the sender's own, and the receiver only observes the sender's
//     execution time — which it can do from any core;
//   - the shared L2 still carries a classic cache covert channel, so
//     the persistent decode works cross-core over shared memory.
func TestCrossCoreScoping(t *testing.T) {
	newCorePair := func(seed int64) (*cpu.Machine, *cpu.Machine, *predictor.LVP, *predictor.LVP) {
		cores := mem.NewMulticore(2)
		lvpA, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 4})
		if err != nil {
			t.Fatal(err)
		}
		lvpB, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 4})
		if err != nil {
			t.Fatal(err)
		}
		mA, err := cpu.NewMachine(cpu.Config{}, cores[0], lvpA, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		mB, err := cpu.NewMachine(cpu.Config{}, cores[1], lvpB, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			t.Fatal(err)
		}
		mA.Noise = cpu.Noise{MemJitter: 12, HitJitter: 2}
		mB.Noise = mA.Noise
		return mA, mB, lvpA, lvpB
	}

	// 1) Cross-core Train+Test: the sender trains on core A; the
	// receiver triggers on core B and must get nothing.
	mA, mB, _, lvpB := newCorePair(101)
	trainProg, err := buildKernel(kernelParams{
		role: train, target: knownAddr, value: knownValue, setValue: true,
		iters: 4, depBase: dummyAddr, results: resultsA,
	})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := mA.NewProcess(1, trainProg, senderPhys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mA.Run(sender); err != nil {
		t.Fatal(err)
	}
	trigProg, err := buildKernel(kernelParams{
		role: trigger, target: knownAddr, value: knownValue, setValue: true,
		iters: 1, depBase: dummyAddr, results: resultsB,
	})
	if err != nil {
		t.Fatal(err)
	}
	recv, err := mB.NewProcess(2, trigProg, recvPhys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mB.Run(recv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predictions != 0 {
		t.Errorf("cross-core trigger got %d predictions; per-core VPS should isolate", res.Predictions)
	}
	if lvpB.Len() == 0 {
		// The trigger load itself trains core B's own predictor.
		t.Error("core B's own predictor should have trained on the trigger")
	}

	// 2) Internal interference cross-core: Train+Hit entirely on core
	// A, the "receiver" only reads the sender's timing. Mapped (secret
	// == trained value) must stay distinguishable from unmapped.
	trial := func(mapped bool, seed int64) float64 {
		m, _, _, _ := newCorePair(seed)
		tr, err := buildKernel(kernelParams{
			role: train, target: secretAddr, value: knownValue, setValue: true,
			iters: 4, depBase: probeBase, flushDep: true, results: resultsA,
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.NewProcess(1, tr, senderPhys)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(p); err != nil {
			t.Fatal(err)
		}
		secret := uint64(knownValue)
		if !mapped {
			secret = senderValue
		}
		m.Hier.Mem.Write(senderPhys+secretAddr, secret)
		m.Hier.Flush(senderPhys + secretAddr)
		for v := uint64(0); v <= valueMask; v++ {
			m.Hier.Flush(senderPhys + probeBase + v<<probeShift)
		}
		tg, err := buildKernel(kernelParams{
			role: trigger, target: secretAddr,
			iters: 1, depBase: probeBase, results: resultsA,
		})
		if err != nil {
			t.Fatal(err)
		}
		p2, err := m.NewProcess(1, tg, senderPhys)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(p2); err != nil {
			t.Fatal(err)
		}
		return float64(m.Hier.Mem.Peek(senderPhys + resultsA))
	}
	var mappedObs, unmappedObs []float64
	for i := int64(0); i < 20; i++ {
		mappedObs = append(mappedObs, trial(true, 500+i*3))
		unmappedObs = append(unmappedObs, trial(false, 900+i*3))
	}
	tt, err := stats.WelchTTest(mappedObs, unmappedObs)
	if err != nil {
		t.Fatal(err)
	}
	if tt.P >= 0.05 {
		t.Errorf("cross-core internal interference p=%.4f, want effective", tt.P)
	}

	// 3) The shared L2 carries a plain cache covert channel: core A
	// touches a shared line; core B's probe sees an L2 hit.
	mA2, mB2, _, _ := newCorePair(301)
	sharedLine := uint64(0x77000)
	mA2.Hier.Access(sharedLine, true)
	lat, lvl := mB2.Hier.Access(sharedLine, true)
	if lvl != mem.LevelL2 {
		t.Errorf("cross-core probe served from %v (lat %d), want shared L2", lvl, lat)
	}
}
