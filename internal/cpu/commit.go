package cpu

import (
	"errors"
	"fmt"

	"vpsec/internal/isa"
)

// ErrInvariant tags microarchitectural invariant violations detected
// when Config.CheckInvariants is set. Callers (the differential
// harness's shrinker in particular) use errors.Is to distinguish a
// genuine pipeline defect from incidental run errors such as the
// cycle watchdog.
var ErrInvariant = errors.New("cpu: invariant violation")

// invariantf builds an ErrInvariant-wrapped error.
func invariantf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvariant}, args...)...)
}

// checkInvariants validates the pipeline's microarchitectural
// invariants; it runs once per cycle when Config.CheckInvariants is
// set:
//
//   - the ROB holds at most ROBSize entries, in strictly increasing
//     fetch-sequence order;
//   - no entry past the waiting state has an unready operand;
//   - the rename map points at exactly the youngest in-flight writer
//     of each register (R0 is never renamed);
//   - commits happen in program order (enforced incrementally in
//     commit via lastCommitSeq);
//   - every bitmap scoreboard agrees bit-for-bit with the per-entry
//     state it mirrors (see checkScoreboards).
//
// Squashed instructions never touching architected state is enforced
// structurally (registers and memory are written only in commit,
// which only ever retires the ROB head) and differentially (final
// state equality against the in-order oracle).
func (p *pipeline) checkInvariants() error {
	if p.invErr != nil {
		return p.invErr
	}
	if p.rob.len() > p.cfg.ROBSize {
		return invariantf("ROB holds %d entries, capacity %d", p.rob.len(), p.cfg.ROBSize)
	}
	var youngest [isa.NumRegs]*entry
	var lastSeq uint64
	for i := 0; i < p.rob.len(); i++ {
		e := p.rob.at(i)
		if i > 0 && e.seq <= lastSeq {
			return invariantf("ROB seq not increasing: %d after %d", e.seq, lastSeq)
		}
		lastSeq = e.seq
		if e.state != stWaiting && (!e.src1.ready || !e.src2.ready) {
			return invariantf("seq %d (pc=%d %v) past waiting with unready operand", e.seq, e.pc, e.in.Op)
		}
		if e.in.Op.WritesDst() && e.in.Dst != isa.R0 {
			youngest[e.in.Dst] = e
		}
	}
	for r := 1; r < isa.NumRegs; r++ {
		if p.rename[r] != youngest[r] {
			return invariantf("rename map stale for r%d", r)
		}
	}
	return p.checkScoreboards()
}

// checkScoreboards cross-validates every bitmap scoreboard and SoA lane
// against the entry state it mirrors — the redundancy the bitmap
// scheduler introduced is only safe while the two views never diverge:
//
//   - slot bookkeeping: rob.buf[e.slot] == e and seqA[e.slot] == e.seq
//     for every live entry;
//   - per-slot state bits are exact: readyM ⟺ issue-eligible waiting,
//     execM ⟺ executing, doneM ⟺ fullyDone, pendVM ⟺ predicted and
//     unverified, missM ⟺ missLoad, storeM ⟺ STORE;
//   - no lost wakeups: an unready operand's slot bit is set in its
//     producer's consumer row (the converse — stale row bits — is
//     tolerated by wake and not checked);
//   - vacant slots are fully scrubbed: no state or op-class bit, and an
//     all-zero consumer row (what lets a pooled pipeline skip initSched).
func (p *pipeline) checkScoreboards() error {
	for s := range p.rob.buf {
		e := p.rob.buf[s]
		if e == nil {
			if bitHas(p.readyM, s) || bitHas(p.execM, s) || bitHas(p.pendVM, s) ||
				bitHas(p.doneM, s) || bitHas(p.missM, s) || bitHas(p.storeM, s) {
				return invariantf("vacant slot %d has scoreboard bits set", s)
			}
			if maskCount(p.consRow(s)) != 0 {
				return invariantf("vacant slot %d has a non-empty consumer row", s)
			}
			continue
		}
		if e.slot != s {
			return invariantf("slot %d holds entry claiming slot %d (seq %d)", s, e.slot, e.seq)
		}
		if p.seqA[s] != e.seq {
			return invariantf("seqA[%d]=%d, entry seq %d", s, p.seqA[s], e.seq)
		}
		eligible := e.state == stWaiting && e.src1.ready && e.src2.ready && e.in.Op != isa.FENCE
		if bitHas(p.readyM, s) != eligible {
			return invariantf("seq %d (pc=%d %v): readyM=%v, issue-eligible=%v",
				e.seq, e.pc, e.in.Op, bitHas(p.readyM, s), eligible)
		}
		if bitHas(p.execM, s) != (e.state == stExecuting) {
			return invariantf("seq %d (pc=%d %v): execM=%v, state=%v",
				e.seq, e.pc, e.in.Op, bitHas(p.execM, s), e.state)
		}
		if bitHas(p.doneM, s) != e.fullyDone() {
			return invariantf("seq %d (pc=%d %v): doneM=%v, fullyDone=%v",
				e.seq, e.pc, e.in.Op, bitHas(p.doneM, s), e.fullyDone())
		}
		if bitHas(p.pendVM, s) != (e.predicted && !e.verified) {
			return invariantf("seq %d (pc=%d %v): pendVM=%v, predicted=%v verified=%v",
				e.seq, e.pc, e.in.Op, bitHas(p.pendVM, s), e.predicted, e.verified)
		}
		if bitHas(p.missM, s) != e.missLoad {
			return invariantf("seq %d (pc=%d %v): missM=%v, missLoad=%v",
				e.seq, e.pc, e.in.Op, bitHas(p.missM, s), e.missLoad)
		}
		if bitHas(p.storeM, s) != (e.in.Op == isa.STORE) {
			return invariantf("seq %d (pc=%d %v): storeM=%v", e.seq, e.pc, e.in.Op, bitHas(p.storeM, s))
		}
		for _, o := range [2]*operand{&e.src1, &e.src2} {
			if !o.ready && o.prod != nil && !bitHas(p.consRow(o.prod.slot), s) {
				return invariantf("lost wakeup: seq %d (pc=%d %v) waits on seq %d but is not in its consumer row",
					e.seq, e.pc, e.in.Op, o.prod.seq)
			}
		}
	}
	return nil
}
