// Package trace records typed per-instruction pipeline events and
// renders them as a text pipeline diagram (one row per dynamic
// instruction, one column per cycle), the view processor architects
// use to see exactly how a value prediction overlaps a miss or how a
// squash unwinds the window. cmd/vpsim exposes it via -pipeview.
package trace

import (
	"fmt"
	"sort"
	"strings"
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
	Verify  // the prediction was verified (Text: "correct"/"wrong")
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
	}
	return "?"
}

// lane letters for the diagram.
var lane = map[Kind]byte{
	Fetch: 'F', Issue: 'I', Writeback: 'W', Commit: 'C',
	Squash: 'x', Predict: 'P', Verify: 'V',
}

// Event is one recorded pipeline event.
type Event struct {
	Cycle uint64
	Kind  Kind
	Seq   uint64 // dynamic instruction number
	PC    int
	Text  string // disassembly or annotation
}

// Recorder collects events up to a capacity (0 = unlimited). The zero
// Recorder is ready to use but disabled; call Enable first.
type Recorder struct {
	enabled bool
	cap     int
	events  []Event
	dropped int
}

// NewRecorder returns an enabled recorder keeping at most cap events
// (cap <= 0 means unlimited).
func NewRecorder(cap int) *Recorder {
	return &Recorder{enabled: true, cap: cap}
}

// Enable turns recording on.
func (r *Recorder) Enable() { r.enabled = true }

// Enabled reports whether events are being kept.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled }

// Record appends an event (no-op when disabled or full).
func (r *Recorder) Record(ev Event) {
	if r == nil || !r.enabled {
		return
	}
	if r.cap > 0 && len(r.events) >= r.cap {
		r.dropped++
		return
	}
	r.events = append(r.events, ev)
}

// Events returns the recorded events in arrival order.
func (r *Recorder) Events() []Event { return r.events }

// Dropped reports how many events exceeded the capacity.
func (r *Recorder) Dropped() int { return r.dropped }

// Reset clears the recorder.
func (r *Recorder) Reset() {
	r.events = r.events[:0]
	r.dropped = 0
}

// row is the per-instruction aggregation used by the renderer.
type row struct {
	seq      uint64
	pc       int
	text     string
	marks    map[uint64]byte // cycle -> lane letter
	first    uint64
	last     uint64
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
			rw = &row{seq: ev.Seq, pc: ev.PC, text: ev.Text, marks: map[uint64]byte{}, first: ev.Cycle}
			rows[ev.Seq] = rw
		}
		if ev.Text != "" && rw.text == "" {
			rw.text = ev.Text
		}
		switch ev.Kind {
		case Squash:
			rw.squashed = true
		case Verify:
			rw.verify = ev.Text
		}
		rw.marks[ev.Cycle] = lane[ev.Kind]
		if ev.Cycle < rw.first {
			rw.first = ev.Cycle
		}
		if ev.Cycle > rw.last {
			rw.last = ev.Cycle
		}
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

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
