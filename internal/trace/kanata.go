package trace

import (
	"fmt"
	"io"
	"sort"
)

// ExportKanata writes the recorded events in the Kanata log format
// (the pipeline-visualizer format used by the Onikiri2/Konata tools),
// so traces from this simulator can be opened in a graphical viewer:
//
//	Kanata	0004
//	C=	<start cycle>
//	I	<display-id>	<instr-id>	<thread>
//	L	<id>	0	<text>
//	S	<id>	0	<stage>
//	C	<delta cycles>
//	R	<id>	<retire-id>	<flush:0|1>
//
// Stages map as F (fetch), I (issue), W (writeback), Cm (commit).
func (r *Recorder) ExportKanata(w io.Writer) error {
	evs := append([]Event(nil), r.events...)
	if len(evs) == 0 {
		_, err := fmt.Fprintln(w, "Kanata\t0004")
		return err
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Cycle < evs[j].Cycle })

	if _, err := fmt.Fprintln(w, "Kanata\t0004"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "C=\t%d\n", evs[0].Cycle); err != nil {
		return err
	}
	cur := evs[0].Cycle
	// A Kanata instruction record ends at its R line, so a squashed-
	// then-replayed entry (selective replay keeps the same seq) must
	// re-enter under a fresh display id — otherwise its eventual commit
	// would be lost. ids maps each seq to its live incarnation; the
	// first incarnation reuses the seq as its id, replays draw fresh ids
	// above every seq in the trace.
	ids := map[uint64]uint64{} // seq -> live Kanata id
	seen := map[uint64]bool{}  // seq was introduced at least once
	var nextID uint64
	for _, ev := range evs {
		if ev.Seq >= nextID {
			nextID = ev.Seq + 1
		}
	}
	var retireID uint64 = 1
	for _, ev := range evs {
		if ev.Cycle > cur {
			if _, err := fmt.Fprintf(w, "C\t%d\n", ev.Cycle-cur); err != nil {
				return err
			}
			cur = ev.Cycle
		}
		id, live := ids[ev.Seq]
		if !live {
			if !seen[ev.Seq] {
				id = ev.Seq
				seen[ev.Seq] = true
			} else {
				id = nextID
				nextID++
			}
			ids[ev.Seq] = id
			if _, err := fmt.Fprintf(w, "I\t%d\t%d\t0\n", id, ev.Seq); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "L\t%d\t0\t%s\n", id, ev.Instr); err != nil {
				return err
			}
		}
		switch ev.Kind {
		case Fetch:
			if _, err := fmt.Fprintf(w, "S\t%d\t0\tF\n", id); err != nil {
				return err
			}
		case Issue:
			if _, err := fmt.Fprintf(w, "S\t%d\t0\tI\n", id); err != nil {
				return err
			}
		case Predict:
			if _, err := fmt.Fprintf(w, "L\t%d\t1\tvalue-predicted\n", id); err != nil {
				return err
			}
		case Verify:
			if _, err := fmt.Fprintf(w, "L\t%d\t1\tverify:%s\n", id, verdict(ev.Correct)); err != nil {
				return err
			}
		case Writeback:
			if _, err := fmt.Fprintf(w, "S\t%d\t0\tW\n", id); err != nil {
				return err
			}
		case Commit:
			if _, err := fmt.Fprintf(w, "R\t%d\t%d\t0\n", id, retireID); err != nil {
				return err
			}
			retireID++
			delete(ids, ev.Seq)
		case Squash:
			if _, err := fmt.Fprintf(w, "R\t%d\t0\t1\n", id); err != nil {
				return err
			}
			delete(ids, ev.Seq)
		}
	}
	return nil
}
