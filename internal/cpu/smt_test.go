package cpu

import (
	"math/rand"
	"testing"

	"vpsec/internal/isa"
	"vpsec/internal/predictor"
	"vpsec/internal/trace"
)

// TestSMTArchitecturalIsolation: two random programs co-scheduled on
// one core produce exactly the results they produce alone.
func TestSMTArchitecturalIsolation(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		progA := randomLoopProgram(seed * 3)
		progB := randomLoopProgram(seed*3 + 1)

		itA := isa.NewInterp(progA)
		if _, err := itA.Run(progA); err != nil {
			t.Fatal(err)
		}
		itB := isa.NewInterp(progB)
		if _, err := itB.Run(progB); err != nil {
			t.Fatal(err)
		}

		m, err := NewMachine(Config{}, nil, nil, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		pa, err := m.NewProcess(1, progA, 0)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := m.NewProcess(2, progB, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		ra, rb, err := m.RunSMT(pa, pb)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Regs != itA.Regs {
			t.Fatalf("seed %d: thread A diverged under SMT", seed)
		}
		if rb.Regs != itB.Regs {
			t.Fatalf("seed %d: thread B diverged under SMT", seed)
		}
	}
}

// TestSMTSharedPredictor: thread B's load at the same virtual PC
// receives a prediction trained by thread A within the same SMT run —
// the simultaneous-multithreading version of the cross-process
// collision.
func TestSMTSharedPredictor(t *testing.T) {
	lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(Config{}, nil, lvp, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Train in one SMT run (with an idle sibling), then trigger from a
	// different thread in a second run: the VPS state persists on the
	// shared machine.
	trainer := trainAndTriggerProgram(4, 0x11)
	pa, err := m.NewProcess(1, trainer, 0)
	if err != nil {
		t.Fatal(err)
	}
	idle := isa.NewBuilder("idle").Nop().Halt().MustBuild()
	pi, err := m.NewProcess(3, idle, 2<<30)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.RunSMT(pa, pi); err != nil {
		t.Fatal(err)
	}

	trigger := trainAndTriggerProgram(1, 0x99)
	pbp, err := m.NewProcess(2, trigger, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	pi2, err := m.NewProcess(4, idle, 3<<30)
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := m.RunSMT(pbp, pi2)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Predictions == 0 {
		t.Error("SMT-shared predictor produced no cross-thread prediction")
	}
}

// TestSMTPortContentionSlowsCoRunner: a compute co-runner's execution
// time grows when the sibling thread is busy versus idle — the honest
// receiver observation of the volatile channel.
func TestSMTPortContentionSlowsCoRunner(t *testing.T) {
	alu := func(iters int) *isa.Program {
		b := isa.NewBuilder("alu-corunner")
		b.MovI(isa.R1, 0)
		b.MovI(isa.R2, int64(iters))
		b.Label("loop")
		// Four independent adds per iteration saturate a 4-wide core.
		b.Add(isa.R3, isa.R1, isa.R1)
		b.Add(isa.R4, isa.R1, isa.R1)
		b.Add(isa.R5, isa.R1, isa.R1)
		b.Add(isa.R6, isa.R1, isa.R1)
		b.AddI(isa.R1, isa.R1, 1)
		b.Blt(isa.R1, isa.R2, "loop")
		b.Halt()
		return b.MustBuild()
	}
	idle := isa.NewBuilder("idle").Nop().Halt().MustBuild()

	run := func(sibling *isa.Program) uint64 {
		// Bimodal branch prediction keeps both loops issuing at full
		// width, so the port sharing is what limits throughput.
		m, err := NewMachine(Config{BimodalBranch: true}, nil, nil, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		pa, err := m.NewProcess(1, alu(2000), 0)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := m.NewProcess(2, sibling, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		ra, _, err := m.RunSMT(pa, pb)
		if err != nil {
			t.Fatal(err)
		}
		return ra.Cycles
	}
	aloneish := run(idle)
	contended := run(alu(2000))
	if contended*10 < aloneish*13 { // expect >= ~1.3x slowdown
		t.Errorf("co-runner barely slowed: alone %d, contended %d", aloneish, contended)
	}
}

// TestPortTypeFingerprinting: with a single shared multiply port, a
// MUL-heavy co-runner slows far more next to a MUL-heavy sibling than
// next to an ADD-heavy one — the port-type asymmetry SMoTherSpectre
// fingerprints.
func TestPortTypeFingerprinting(t *testing.T) {
	kernel := func(op string, iters int) *isa.Program {
		b := isa.NewBuilder(op + "-kernel")
		b.MovI(isa.R1, 3)
		b.MovI(isa.R2, 0)
		b.MovI(isa.R3, int64(iters))
		b.Label("loop")
		for i := 0; i < 4; i++ {
			if op == "mul" {
				b.Mul(isa.Reg(4+i), isa.R1, isa.R1)
			} else {
				b.Add(isa.Reg(4+i), isa.R1, isa.R1)
			}
		}
		b.AddI(isa.R2, isa.R2, 1)
		b.Blt(isa.R2, isa.R3, "loop")
		b.Halt()
		return b.MustBuild()
	}
	run := func(sibling *isa.Program) uint64 {
		m, err := NewMachine(Config{BimodalBranch: true}, nil, nil, rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		pa, err := m.NewProcess(1, kernel("mul", 1500), 0)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := m.NewProcess(2, sibling, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		ra, _, err := m.RunSMT(pa, pb)
		if err != nil {
			t.Fatal(err)
		}
		return ra.Cycles
	}
	vsAdd := run(kernel("add", 1500))
	vsMul := run(kernel("mul", 1500))
	if vsMul*10 < vsAdd*13 { // expect >= ~1.3x extra slowdown
		t.Errorf("MUL-port contention invisible: vs-add %d, vs-mul %d cycles", vsAdd, vsMul)
	}
}

// TestSMTTraceSeqsDisjoint: on the shared event hook, the two hardware
// threads' instruction sequence numbers must not collide, and each
// event names its own thread's process.
func TestSMTTraceSeqsDisjoint(t *testing.T) {
	m, err := NewMachine(Config{}, nil, nil, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	m.Events = rec.Record
	progA := randomLoopProgram(21)
	progB := randomLoopProgram(22)
	pa, _ := m.NewProcess(1, progA, 0)
	pb, _ := m.NewProcess(2, progB, 1<<30)
	if _, _, err := m.RunSMT(pa, pb); err != nil {
		t.Fatal(err)
	}
	lowSeen, highSeen := false, false
	for _, ev := range rec.Events() {
		low := ev.Seq < 1<<32
		if low != (ev.PID == 1) {
			t.Fatalf("event %+v: seq range and PID name different threads", ev)
		}
		if low {
			lowSeen = true
		} else {
			highSeen = true
		}
	}
	if !lowSeen || !highSeen {
		t.Error("expected events from both threads in disjoint seq ranges")
	}
}
