package cpu

import (
	"bytes"
	"math/rand"
	"testing"

	"vpsec/internal/isa"
	"vpsec/internal/predictor"
	"vpsec/internal/trace"
)

// buildDoubleReplayProg trains a load, then changes the loaded value
// twice, forcing two value-misprediction replays. The mispredicted
// load fans out into a diamond of dependent adds, so each replay
// closure holds several entries — the shape that exposed the old
// map-ordered closure traversal.
func buildDoubleReplayProg(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("kanata-double-replay")
	b.Word(0x1000, 5)
	b.MovI(isa.R1, 0x1000)
	b.MovI(isa.R3, 0)
	b.MovI(isa.R4, 12)
	b.MovI(isa.R13, 4)
	b.MovI(isa.R14, 8)
	b.Label("loop")
	b.Flush(isa.R1, 0)
	b.Fence()
	b.Load(isa.R2, isa.R1, 0) // the predicted load
	b.Add(isa.R5, isa.R2, isa.R2)
	b.Add(isa.R6, isa.R2, isa.R5)
	b.Add(isa.R7, isa.R2, isa.R6)
	b.Add(isa.R8, isa.R5, isa.R7)
	b.Fence()
	b.AddI(isa.R3, isa.R3, 1)
	b.Bne(isa.R3, isa.R13, "skip1")
	b.MovI(isa.R9, 9) // first value change: next prediction wrong
	b.Store(isa.R1, 0, isa.R9)
	b.Fence()
	b.Label("skip1")
	b.Bne(isa.R3, isa.R14, "skip2")
	b.MovI(isa.R9, 13) // second value change: second replay
	b.Store(isa.R1, 0, isa.R9)
	b.Fence()
	b.Label("skip2")
	b.Blt(isa.R3, isa.R4, "loop")
	b.Halt()
	return b.MustBuild()
}

// kanataRun executes the double-replay program from a fresh machine
// with the given seed and returns the Kanata export plus the run
// result.
func kanataRun(t *testing.T, seed int64) ([]byte, RunResult) {
	t.Helper()
	prog := buildDoubleReplayProg(t)
	lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(Config{SelectiveReplay: true}, nil, lvp, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	m.Events = rec.Record
	proc, err := m.NewProcess(1, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(proc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.ExportKanata(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestKanataDeterministicDoubleReplay checks that two same-seed runs
// through a forced double replay export byte-identical Kanata traces.
// The replay closure used to be collected in a map and traversed in
// map order, so replayed stage events could legally permute between
// runs; the epoch-stamped closure walks the ROB in seq order and must
// be deterministic.
func TestKanataDeterministicDoubleReplay(t *testing.T) {
	first, res := kanataRun(t, 7)
	if res.VerifyWrong < 2 {
		t.Fatalf("VerifyWrong = %d, want >= 2 (forced double replay misfired)", res.VerifyWrong)
	}
	if res.Replayed == 0 {
		t.Fatal("Replayed = 0: selective replay never triggered")
	}
	if st, err := trace.CheckKanata(bytes.NewReader(first)); err != nil {
		t.Fatalf("CheckKanata: %v (stats %+v)", err, st)
	}
	second, res2 := kanataRun(t, 7)
	if res2.VerifyWrong != res.VerifyWrong || res2.Replayed != res.Replayed {
		t.Fatalf("same-seed runs diverged: replay stats %d/%d vs %d/%d",
			res.VerifyWrong, res.Replayed, res2.VerifyWrong, res2.Replayed)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("same-seed Kanata exports differ across a double replay")
	}
}
