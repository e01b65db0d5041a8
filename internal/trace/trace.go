// Package trace defines the core's simulated-time event stream — the
// typed events cpu.Machine.Events receives as the pipeline runs — and
// the Recorder that renders it as a text pipeline diagram (one row per
// dynamic instruction, one column per cycle), the view processor
// architects use to see exactly how a value prediction overlaps a
// miss or how a squash unwinds the window, or as a Kanata log.
// cmd/vpsim exposes them via -pipeview, -kanata and -memtrace.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"vpsec/internal/isa"
	"vpsec/internal/mem"
)

// Kind classifies a pipeline event.
type Kind uint8

// Event kinds, in pipeline order.
const (
	Fetch Kind = iota
	Issue
	Writeback
	Commit
	Squash  // the instruction was cancelled
	Predict // a value prediction was made for this load
	Verify  // the prediction was verified (see Event.Correct)
	Access  // a memory access (see Event.Stage, PAddr, Level, Latency)
)

// String names the event kind in lower case, as text dumps print it.
func (k Kind) String() string {
	switch k {
	case Fetch:
		return "fetch"
	case Issue:
		return "issue"
	case Writeback:
		return "writeback"
	case Commit:
		return "commit"
	case Squash:
		return "squash"
	case Predict:
		return "predict"
	case Verify:
		return "verify"
	case Access:
		return "access"
	}
	return "?"
}

// lane letters for the diagram.
var lane = map[Kind]byte{
	Fetch: 'F', Issue: 'I', Writeback: 'W', Commit: 'C',
	Squash: 'x', Predict: 'P', Verify: 'V',
}

// Event is one event of the core's stream. Every event names the
// instruction it concerns; the fields after Instr are set only by the
// kinds their comments name.
type Event struct {
	Cycle uint64
	Kind  Kind
	PID   uint64 // the process the instruction belongs to
	Seq   uint64 // dynamic instruction number
	PC    int
	Instr isa.Instr

	Correct bool       // Verify: the predicted value matched the loaded one
	Commit  isa.Commit // Commit: the architectural retirement record

	// Access: the stage it happened in (Issue, or Commit for a flush
	// taking effect), its physical address and, for a load, what
	// served it and the latency before jitter.
	Stage   Kind
	PAddr   uint64
	Level   mem.Level
	Latency uint64
}

// Recorder collects the events a pipeline diagram draws; attach one
// with Machine.Events = rec.Record. The zero Recorder is ready to use.
type Recorder struct {
	events []Event
}

// Record appends an event. Memory accesses have no lane in the
// diagram, so Access events are not kept.
func (r *Recorder) Record(ev Event) {
	if ev.Kind != Access {
		r.events = append(r.events, ev)
	}
}

// Events returns the recorded events in arrival order.
func (r *Recorder) Events() []Event { return r.events }

// row is the per-instruction aggregation used by the renderer.
type row struct {
	seq      uint64
	pc       int
	text     string
	marks    map[uint64]byte // cycle -> lane letter
	squashed bool
	verify   string
}

// RenderPipeline draws instructions seqLo..seqHi (inclusive) as a text
// pipeline diagram. Cycles are rebased to the earliest event shown.
func (r *Recorder) RenderPipeline(seqLo, seqHi uint64) string {
	rows := map[uint64]*row{}
	minCycle := ^uint64(0)
	maxCycle := uint64(0)
	for _, ev := range r.events {
		if ev.Seq < seqLo || ev.Seq > seqHi {
			continue
		}
		rw := rows[ev.Seq]
		if rw == nil {
			rw = &row{seq: ev.Seq, pc: ev.PC, text: ev.Instr.String(), marks: map[uint64]byte{}}
			rows[ev.Seq] = rw
		}
		switch ev.Kind {
		case Squash:
			rw.squashed = true
		case Verify:
			rw.verify = verdict(ev.Correct)
		}
		rw.marks[ev.Cycle] = lane[ev.Kind]
		if ev.Cycle < minCycle {
			minCycle = ev.Cycle
		}
		if ev.Cycle > maxCycle {
			maxCycle = ev.Cycle
		}
	}
	if len(rows) == 0 {
		return "(no events in range)\n"
	}
	seqs := make([]uint64, 0, len(rows))
	for s := range rows {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	span := maxCycle - minCycle + 1
	const maxSpan = 400
	truncated := false
	if span > maxSpan {
		span = maxSpan
		truncated = true
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycle base %d; F=fetch I=issue W=writeback C=commit P=value-predict V=verify x=squash\n", minCycle)
	for _, s := range seqs {
		rw := rows[s]
		line := make([]byte, span)
		for i := range line {
			line[i] = '.'
		}
		for c, m := range rw.marks {
			off := c - minCycle
			if off < uint64(span) {
				// Later stages overwrite earlier dots only.
				if line[off] == '.' || m == 'x' || m == 'P' || m == 'V' {
					line[off] = m
				}
			}
		}
		note := ""
		if rw.squashed {
			note = " [squashed]"
		}
		if rw.verify != "" {
			note += " [verify " + rw.verify + "]"
		}
		fmt.Fprintf(&sb, "%5d pc=%-4d %-24s |%s|%s\n", rw.seq, rw.pc, clip(rw.text, 24), line, note)
	}
	if truncated {
		fmt.Fprintf(&sb, "(window truncated to %d cycles)\n", maxSpan)
	}
	return sb.String()
}

// verdict names a verification's outcome as the renderers print it.
func verdict(correct bool) string {
	if correct {
		return "correct"
	}
	return "wrong"
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
