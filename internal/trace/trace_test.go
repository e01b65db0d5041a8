package trace

import (
	"strings"
	"testing"

	"vpsec/internal/isa"
)

// The two instructions of the hand-built streams below; like the
// core's, every event carries the instruction it concerns.
var (
	loadR2 = isa.Instr{Op: isa.LOAD, Dst: isa.R2, Src1: isa.R1} // load r2, [r1+0]
	addR3  = isa.Instr{Op: isa.ADD, Dst: isa.R3, Src1: isa.R2, Src2: isa.R2}
)

func TestRecorderBasics(t *testing.T) {
	var r Recorder // the zero value records
	for i := uint64(0); i < 5; i++ {
		r.Record(Event{Cycle: i, Kind: Fetch, Seq: i})
		r.Record(Event{Cycle: i, Kind: Access, Seq: i, PAddr: 0x1000})
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("kept %d events, want the 5 fetches (accesses have no lane)", len(evs))
	}
	for i, ev := range evs {
		if ev.Kind != Fetch || ev.Seq != uint64(i) {
			t.Errorf("event %d = %+v, want fetch of seq %d in arrival order", i, ev, i)
		}
	}
}

func TestKindNames(t *testing.T) {
	for _, k := range []Kind{Fetch, Issue, Writeback, Commit, Squash, Predict, Verify, Access} {
		if k.String() == "?" {
			t.Errorf("kind %d unnamed", k)
		}
	}
	if Kind(99).String() != "?" {
		t.Error("unknown kind name")
	}
}

func TestRenderPipeline(t *testing.T) {
	var r Recorder
	// Instruction 0: a predicted load; instruction 1: a squashed add.
	r.Record(Event{Cycle: 10, Kind: Fetch, Seq: 0, PC: 5, Instr: loadR2})
	r.Record(Event{Cycle: 11, Kind: Issue, Seq: 0, PC: 5, Instr: loadR2})
	r.Record(Event{Cycle: 12, Kind: Predict, Seq: 0, PC: 5, Instr: loadR2})
	r.Record(Event{Cycle: 13, Kind: Writeback, Seq: 0, PC: 5, Instr: loadR2})
	r.Record(Event{Cycle: 30, Kind: Verify, Seq: 0, PC: 5, Instr: loadR2})
	r.Record(Event{Cycle: 10, Kind: Fetch, Seq: 1, PC: 6, Instr: addR3})
	r.Record(Event{Cycle: 30, Kind: Squash, Seq: 1, PC: 6, Instr: addR3})

	out := r.RenderPipeline(0, 1)
	for _, want := range []string{"load r2", "add r3", "[verify wrong]", "[squashed]", "F", "P", "x"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if got := r.RenderPipeline(50, 60); !strings.Contains(got, "no events") {
		t.Error("empty range should say so")
	}
}

func TestRenderTruncatesWideWindows(t *testing.T) {
	var r Recorder
	r.Record(Event{Cycle: 0, Kind: Fetch, Seq: 0})
	r.Record(Event{Cycle: 10_000, Kind: Commit, Seq: 0})
	out := r.RenderPipeline(0, 0)
	if !strings.Contains(out, "truncated") {
		t.Error("wide window should be truncated")
	}
}

func TestExportKanata(t *testing.T) {
	var r Recorder
	r.Record(Event{Cycle: 5, Kind: Fetch, Seq: 0, Instr: loadR2})
	r.Record(Event{Cycle: 6, Kind: Issue, Seq: 0, Instr: loadR2})
	r.Record(Event{Cycle: 6, Kind: Predict, Seq: 0, Instr: loadR2})
	r.Record(Event{Cycle: 7, Kind: Writeback, Seq: 0, Instr: loadR2})
	r.Record(Event{Cycle: 9, Kind: Verify, Seq: 0, Correct: true, Instr: loadR2})
	r.Record(Event{Cycle: 10, Kind: Commit, Seq: 0, Instr: loadR2})
	r.Record(Event{Cycle: 6, Kind: Fetch, Seq: 1, Instr: addR3})
	r.Record(Event{Cycle: 10, Kind: Squash, Seq: 1, Instr: addR3})

	var sb strings.Builder
	if err := r.ExportKanata(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Kanata\t0004", "C=\t5", "I\t0\t0\t0", "L\t0\t0\tload r2",
		"S\t0\t0\tF", "S\t0\t0\tI", "value-predicted", "verify:correct",
		"R\t0\t1\t0", "R\t1\t0\t1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("kanata log missing %q:\n%s", want, out)
		}
	}
	// Empty recorder still emits a valid header.
	var empty strings.Builder
	if err := new(Recorder).ExportKanata(&empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "Kanata") {
		t.Error("empty export missing header")
	}
}

func TestExportKanataSquashThenReplay(t *testing.T) {
	// Selective replay keeps the squashed entry's seq: after the flush
	// record, the re-executed incarnation must re-enter under a fresh
	// Kanata id (with its label) and still produce a retire record.
	var r Recorder
	r.Record(Event{Cycle: 5, Kind: Fetch, Seq: 0, Instr: loadR2})
	r.Record(Event{Cycle: 6, Kind: Issue, Seq: 0, Instr: loadR2})
	r.Record(Event{Cycle: 6, Kind: Fetch, Seq: 1, Instr: addR3})
	r.Record(Event{Cycle: 7, Kind: Issue, Seq: 1, Instr: addR3})
	r.Record(Event{Cycle: 9, Kind: Verify, Seq: 0, Instr: loadR2})
	r.Record(Event{Cycle: 9, Kind: Squash, Seq: 1, Instr: addR3})
	r.Record(Event{Cycle: 10, Kind: Commit, Seq: 0, Instr: loadR2})
	r.Record(Event{Cycle: 11, Kind: Issue, Seq: 1, Instr: addR3}) // replayed incarnation
	r.Record(Event{Cycle: 12, Kind: Writeback, Seq: 1, Instr: addR3})
	r.Record(Event{Cycle: 13, Kind: Commit, Seq: 1, Instr: addR3})

	var sb strings.Builder
	if err := r.ExportKanata(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"R\t1\t0\t1",              // first incarnation flushed
		"I\t2\t1\t0",              // replay re-enters under a fresh id
		"L\t2\t0\tadd r3, r2, r2", // label survives the round trip
		"R\t0\t1\t0",              // the load retires first
		"R\t2\t2\t0",              // the replayed add retires second
	} {
		if !strings.Contains(out, want) {
			t.Errorf("kanata log missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "I\t") != 3 {
		t.Errorf("want 3 introductions (load + two add incarnations):\n%s", out)
	}
}

func TestRenderClipsLongText(t *testing.T) {
	var r Recorder
	r.Record(Event{Kind: Fetch, Instr: isa.Instr{Op: isa.MOVI, Dst: isa.R10, Imm: -1 << 63}})
	out := r.RenderPipeline(0, 0)
	if !strings.Contains(out, "…") {
		t.Errorf("long text not clipped:\n%s", out)
	}
}
