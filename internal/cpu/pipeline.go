package cpu

import (
	"math/bits"

	"vpsec/internal/isa"
	"vpsec/internal/mem"
	"vpsec/internal/predictor"
	"vpsec/internal/trace"
)

type entryState uint8

const (
	stWaiting entryState = iota
	stExecuting
	stDone
)

// operand is one renamed source: either a captured value or a pointer
// to the in-flight producer whose writeback will supply it.
type operand struct {
	ready bool
	val   uint64
	prod  *entry
	// origProd survives wakeups: selective replay uses it to find and
	// re-source the dependence closure of a mispredicted load.
	origProd *entry
}

// entry is a reorder-buffer slot (unified ROB + issue queue). Entries
// live in the machine's arena: fetch takes them from a free list and
// squash (immediately) or commit (once the ROB drains, so in-flight
// consumers can still re-source from retired producers during replay)
// returns them, so steady-state simulation allocates nothing per
// instruction.
type entry struct {
	seq   uint64
	pc    int
	in    isa.Instr
	state entryState

	// slot is the entry's physical index in the ROB ring, assigned at
	// fetch and stable for its whole residency. It keys every bitmap
	// scoreboard and SoA slice (see scoreboard.go); the per-cycle
	// writeback/verify deadlines live in pipeline.finishAtA/verifyAtA
	// rather than here so the hot scans walk contiguous memory.
	slot int

	src1, src2 operand

	result uint64

	// Load bookkeeping.
	addr        uint64 // virtual data address
	paddr       uint64 // physical address
	nextPC      int    // instruction index fetch followed after this one
	actual      uint64 // architecturally correct loaded value
	missLoad    bool   // load being served beyond the L1 (occupies an MSHR)
	vpsEngaged  bool   // load missed to memory; predictor consulted
	predicted   bool   // VPS produced a value
	verified    bool   // verification completed
	pred        predictor.Prediction
	needInstall bool   // D-type: cache fill deferred to commit
	fwdFrom     *entry // the store this load forwarded from, if any

	// replayMark stamps membership in a replay closure: an entry is in
	// the current closure iff replayMark equals the machine's epoch for
	// that traversal. Stale stamps from earlier epochs (or earlier
	// lives of a recycled entry) can never collide because the epoch
	// counter is machine-global and strictly increasing.
	replayMark uint64
}

// fullyDone reports whether the entry's result is architecturally
// final: executed, and (for predicted loads) verified.
func (e *entry) fullyDone() bool {
	return e.state == stDone && (!e.predicted || e.verified)
}

// arenaChunk is how many entries one arena growth step allocates.
const arenaChunk = 256

// entryArena recycles ROB entries across fetches and runs. It is owned
// by the Machine so the free list survives from one Run to the next:
// after the first run on a machine the simulator reaches a steady
// state where fetch never allocates.
type entryArena struct {
	free  []*entry
	chunk []entry
	total int // entries ever carved from chunks
}

func (a *entryArena) alloc() *entry {
	if n := len(a.free); n > 0 {
		e := a.free[n-1]
		a.free = a.free[:n-1]
		return e
	}
	if len(a.chunk) == 0 {
		a.chunk = make([]entry, arenaChunk)
		a.total += arenaChunk
		// Reserve free-list capacity for every live entry up front so
		// releases never regrow it one append at a time.
		if cap(a.free) < a.total {
			nf := make([]*entry, len(a.free), a.total)
			copy(nf, a.free)
			a.free = nf
		}
	}
	e := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return e
}

// release scrubs the entry and puts it on the free list. Zeroing is
// selective: fields that fetch unconditionally overwrites on the next
// alloc (seq, pc, in, slot, nextPC, and both operands via capture) keep
// their stale values, which nothing can read — a freed entry is only
// reachable through the free list, and release happens only once no
// in-flight consumer can re-source it (commit drains retired entries
// after the ROB empties; squash drops the consumers with the producer).
// Everything state-dependent — execution state, load/prediction
// bookkeeping, the forwarding pointer — is cleared so the next life
// starts exactly as a zero entry would.
func (a *entryArena) release(e *entry) {
	e.state = 0
	e.result = 0
	e.addr = 0
	e.paddr = 0
	e.actual = 0
	e.missLoad = false
	e.vpsEngaged = false
	e.predicted = false
	e.verified = false
	e.needInstall = false
	e.pred = predictor.Prediction{}
	e.fwdFrom = nil
	e.replayMark = 0
	a.free = append(a.free, e)
}

// robQ is the reorder buffer: a ring of entry pointers preallocated to
// cfg.ROBSize, so commit and fetch never move or reallocate storage.
type robQ struct {
	buf  []*entry
	head int
	n    int
}

func (q *robQ) init(capacity int) {
	if len(q.buf) != capacity {
		q.buf = make([]*entry, capacity)
	}
	q.head, q.n = 0, 0
}

func (q *robQ) len() int { return q.n }

func (q *robQ) at(i int) *entry {
	j := q.head + i
	if j >= len(q.buf) {
		j -= len(q.buf)
	}
	return q.buf[j]
}

func (q *robQ) push(e *entry) {
	j := q.head + q.n
	if j >= len(q.buf) {
		j -= len(q.buf)
	}
	q.buf[j] = e
	q.n++
}

func (q *robQ) popFront() *entry {
	e := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return e
}

// truncate drops every entry at index keep and beyond (a squash).
func (q *robQ) truncate(keep int) {
	for i := keep; i < q.n; i++ {
		j := q.head + i
		if j >= len(q.buf) {
			j -= len(q.buf)
		}
		q.buf[j] = nil
	}
	q.n = keep
}

const never = ^uint64(0)

// pipeline is the per-run execution state. Pipelines are pooled on the
// Machine and reset between runs, so Run allocates nothing in steady
// state.
type pipeline struct {
	m    *Machine
	proc *Process
	cfg  *Config

	rob    robQ
	rename [isa.NumRegs]*entry
	regs   [isa.NumRegs]uint64

	fetchPC         int
	fetchStallUntil uint64
	fetchDone       bool
	halted          bool
	seq             uint64
	seqBase         uint64 // disambiguates trace seqs across SMT threads

	// Bitmap scoreboards over the ROB ring, indexed by physical slot
	// (see scoreboard.go). Ring order from the head is fetch-seq order,
	// so every oldest-first scan is a TrailingZeros64 sweep — no sort.
	mwords int      // words per mask: ceil(ROBSize/64)
	readyM []uint64 // waiting, both operands ready, not FENCE: the issue pool
	execM  []uint64 // stExecuting: the writeback scan pool
	pendVM []uint64 // predicted && !verified: the verification scan pool
	doneM  []uint64 // fullyDone: RDTSC's all-older-done test
	missM  []uint64 // missLoad: MSHR occupancy scan
	storeM []uint64 // op == STORE: load disambiguation scan
	consM  []uint64 // per-producer consumer rows (wakeup is an OR)

	// Struct-of-arrays mirrors of the per-slot scalars the hot scans
	// read, so issue/finish/verify walk contiguous memory instead of
	// chasing *entry.
	seqA      []uint64 // fetch sequence per slot
	finishAtA []uint64 // writeback cycle once executing
	verifyAtA []uint64 // cycle a predicted load's real value returns

	// fences lists in-flight FENCE entries oldest-first; the oldest
	// unresolved one is the issue barrier.
	fences []*entry
	// retired holds committed entries until the ROB drains: an
	// in-flight consumer may still re-source a retired producer's final
	// result during selective replay, so retirement cannot recycle
	// immediately.
	retired []*entry

	// nextFinish / nextVerify lower-bound the earliest pending
	// writeback and verification; the per-cycle scans run only when the
	// clock reaches them, and event-driven stepping jumps the clock
	// straight to the next bound when a cycle changes nothing.
	nextFinish uint64
	nextVerify uint64
	// activity records that the current cycle observably changed state
	// (issue, writeback, verification, fence resolution, commit, fetch
	// or squash); a cycle with no activity is skippable.
	activity bool
	// noSkip disables event-driven cycle skipping when per-cycle
	// observation is required (Config.CheckInvariants). ConflictSeries
	// sampling needs no gate: recordConflict marks the cycle active, so
	// a conflict-bearing cycle is never skipped, and a quiet cycle by
	// construction records nothing. RunSMT never calls step, so the
	// shared-budget case cannot skip either (see DESIGN.md §10).
	noSkip bool

	// 2-bit bimodal direction counters, used when cfg.BimodalBranch.
	bimodal [512]uint8

	// ctxTag is the running process's predictor isolation-domain tag
	// (Machine.TagFor applied to the PID at reset); zero when untagged.
	ctxTag uint64

	// Invariant-check bookkeeping (Config.CheckInvariants).
	invErr        error
	lastCommitSeq uint64
	committedAny  bool

	res RunResult
}

// reset prepares a pooled pipeline for a fresh run.
func (p *pipeline) reset(m *Machine, proc *Process) {
	p.m, p.proc, p.cfg = m, proc, &m.Cfg
	p.rob.init(m.Cfg.ROBSize)
	p.initSched(m.Cfg.ROBSize)
	p.rename = [isa.NumRegs]*entry{}
	p.regs = proc.Regs
	p.fetchPC = 0
	p.fetchStallUntil = 0
	p.fetchDone = false
	p.halted = false
	p.seq, p.seqBase = 0, 0
	p.fences = p.fences[:0]
	p.retired = p.retired[:0]
	p.nextFinish, p.nextVerify = never, never
	p.activity = false
	p.noSkip = m.Cfg.CheckInvariants
	p.bimodal = [512]uint8{}
	p.ctxTag = 0
	if m.TagFor != nil {
		p.ctxTag = m.TagFor(proc.PID)
	}
	p.invErr = nil
	p.lastCommitSeq, p.committedAny = 0, false
	p.res = RunResult{}
}

// emit records a pipeline trace event when tracing is enabled.
func (p *pipeline) emit(kind trace.Kind, e *entry, now uint64, text string) {
	if !p.m.Tracer.Enabled() {
		return
	}
	p.m.Tracer.Record(trace.Event{Cycle: now, Kind: kind, Seq: e.seq, PC: e.pc, Text: text})
}

func (p *pipeline) ctxFor(e *entry) predictor.Context {
	return predictor.Context{
		PC:       uint64(e.pc) * VirtPCBytes,
		Addr:     e.addr,
		PhysAddr: e.paddr,
		PID:      p.proc.PID,
		Tag:      p.ctxTag,
	}
}

// step advances the machine by one cycle; it returns true when HALT
// has committed. When the cycle turns out to be a pure stall (nothing
// issued, finished, verified, committed or fetched), the clock jumps
// straight to the next scheduled event — the earliest pending
// writeback, verification or fetch restart — which is where most of a
// DRAM miss goes.
func (p *pipeline) step() (bool, error) {
	now := p.m.Cycle
	p.activity = false
	if now >= p.nextVerify {
		p.verify(now)
	}
	if now >= p.nextFinish {
		p.finish(now)
	}
	p.resolveFences()
	p.commit(now)
	if maskAny(p.readyM) {
		budget := issueBudget{ports: p.cfg.IssueWidth, mem: p.cfg.MemPorts, mul: p.cfg.MulPorts}
		if err := p.issue(now, &budget); err != nil {
			return false, err
		}
	}
	p.fetch(now)
	advance := uint64(1)
	if !p.activity && !p.halted && !p.noSkip {
		if t := p.nextEvent(now); t > now+1 {
			advance = t - now
		}
		// Respect the MaxCycles watchdog: land exactly on the budget so
		// the caller's check fires at the same count it always did. (A
		// quiet cycle with no scheduled event is a deadlocked pipeline;
		// nextEvent returns the watchdog bound and the run errors out
		// without spinning the remaining millions of cycles.)
		if rem := p.cfg.MaxCycles - p.res.Cycles; advance > rem {
			advance = rem
		}
	}
	p.m.observeOccupancy(p.rob.len(), advance)
	if p.cfg.CheckInvariants {
		if err := p.checkInvariants(); err != nil {
			return false, err
		}
	}
	p.m.Cycle += advance
	p.res.Cycles += advance
	return p.halted, nil
}

// nextEvent returns the earliest future cycle at which a quiet
// pipeline can change state: the next writeback, the next
// verification, or the end of a fetch stall. With no event scheduled
// the pipeline is deadlocked and the watchdog bound is returned.
func (p *pipeline) nextEvent(now uint64) uint64 {
	t := never
	if p.nextFinish < t {
		t = p.nextFinish
	}
	if p.nextVerify < t {
		t = p.nextVerify
	}
	if !p.fetchDone && p.rob.len() < p.cfg.ROBSize && now < p.fetchStallUntil && p.fetchStallUntil < t {
		t = p.fetchStallUntil
	}
	return t
}

// verify runs the Prediction Engine Verification (Fig. 1): when the
// real value of a predicted load returns, the predictor trains and a
// mismatch squashes all younger instructions. The scan walks the
// pending-verification scoreboard in ring (= fetch) order, re-reading
// the live mask after every entry so a mid-scan squash or replay that
// drops younger bits is honored; it also recomputes the next pending
// verification time, which gates the next scan.
func (p *pipeline) verify(now uint64) {
	next := uint64(never)
	a0, a1, b0, b1 := p.ringSegs(p.rob.n)
	for seg := 0; seg < 2; seg++ {
		lo, hi := a0, a1
		if seg == 1 {
			lo, hi = b0, b1
		}
		for w := lo >> slotWordShift; w<<slotWordShift < hi; w++ {
			segMask := wordMask(lo, hi, w)
			var seen uint64
			for {
				word := p.pendVM[w] & segMask &^ seen
				if word == 0 {
					break
				}
				b := uint(bits.TrailingZeros64(word))
				seen |= 1 << b
				slot := w<<slotWordShift | int(b)
				if now < p.verifyAtA[slot] {
					if p.verifyAtA[slot] < next {
						next = p.verifyAtA[slot]
					}
					continue
				}
				e := p.rob.buf[slot]
				e.verified = true
				bitClear(p.pendVM, slot)
				if e.fullyDone() {
					bitSet(p.doneM, slot)
				}
				p.activity = true
				p.m.Pred.Update(p.ctxFor(e), e.actual, e.pred)
				if e.pred.Value == e.actual {
					p.res.VerifyCorrect++
					p.emit(trace.Verify, e, now, "correct")
					continue
				}
				p.res.VerifyWrong++
				p.emit(trace.Verify, e, now, "wrong")
				e.result = e.actual
				if p.cfg.SelectiveReplay {
					p.replayDependents(e, p.ringIndex(slot), now)
					continue
				}
				p.squashAfter(p.ringIndex(slot), e.pc+1, now+p.cfg.SquashPenalty)
			}
		}
	}
	p.nextVerify = next
}

// finish completes executions whose latency elapsed, broadcasts
// results, trains the predictor on unpredicted misses, and resolves
// branches. The scan walks the executing scoreboard in ring order —
// re-reading the live mask after every entry, so a mid-scan branch
// squash that clears younger bits is honored — and recomputes the next
// pending writeback time, which gates the next scan.
func (p *pipeline) finish(now uint64) {
	next := uint64(never)
	a0, a1, b0, b1 := p.ringSegs(p.rob.n)
	for seg := 0; seg < 2; seg++ {
		lo, hi := a0, a1
		if seg == 1 {
			lo, hi = b0, b1
		}
		for w := lo >> slotWordShift; w<<slotWordShift < hi; w++ {
			segMask := wordMask(lo, hi, w)
			var seen uint64
			for {
				word := p.execM[w] & segMask &^ seen
				if word == 0 {
					break
				}
				b := uint(bits.TrailingZeros64(word))
				seen |= 1 << b
				slot := w<<slotWordShift | int(b)
				if now < p.finishAtA[slot] {
					if p.finishAtA[slot] < next {
						next = p.finishAtA[slot]
					}
					continue
				}
				e := p.rob.buf[slot]
				e.state = stDone
				bitClear(p.execM, slot)
				if e.fullyDone() {
					bitSet(p.doneM, slot)
				}
				p.activity = true
				p.emit(trace.Writeback, e, now, "")
				if e.in.Op == isa.LOAD && e.vpsEngaged && !e.predicted {
					// Training access: the miss completed without a prediction.
					p.m.Pred.Update(p.ctxFor(e), e.actual, predictor.Prediction{})
				}
				if e.in.Op.IsBranch() {
					taken := p.branchTaken(e)
					if p.cfg.BimodalBranch {
						p.trainBimodal(e.pc, taken)
					}
					actual := e.in.Target
					if !taken {
						actual = e.pc + 1
					}
					// Compare against the path fetch actually followed
					// (e.nextPC), not the fetch-time prediction: under
					// selective replay a branch can resolve more than once,
					// and after its first redirect the fetched path is the
					// previous resolution.
					if actual != e.nextPC {
						p.res.BranchSquash++
						e.nextPC = actual
						p.squashAfter(p.ringIndex(slot), actual, now+p.cfg.BranchPenalty)
					}
					continue
				}
				if e.in.Op == isa.JALR {
					// Indirect jump: the target is the register value, known
					// only now. Fetch followed e.nextPC (initially the
					// fall-through; after a redirect, the previous resolved
					// target), so redirect and squash on any disagreement.
					p.wake(e) // the link value
					target := int(e.src1.val)
					if target != e.nextPC {
						p.res.BranchSquash++
						e.nextPC = target
						p.squashAfter(p.ringIndex(slot), target, now+p.cfg.BranchPenalty)
					}
					continue
				}
				if e.in.Op.WritesDst() {
					p.wake(e)
				}
			}
		}
	}
	p.nextFinish = next
}

func (p *pipeline) branchTaken(e *entry) bool {
	a, b := e.src1.val, e.src2.val
	switch e.in.Op {
	case isa.BEQ:
		return a == b
	case isa.BNE:
		return a != b
	case isa.BLT:
		return int64(a) < int64(b)
	case isa.BGE:
		return int64(a) >= int64(b)
	}
	return false
}

// wake broadcasts e's result to the consumers registered against its
// scoreboard row, instead of scanning the whole ROB. A row bit may be
// stale (the consumer squashed and its slot vacated or reused since
// registration), so each wake re-checks that the slot's occupant still
// names e as its producer; entries that genuinely depend on e again
// re-registered the same bit, which is idempotent.
func (p *pipeline) wake(e *entry) {
	row := p.consRow(e.slot)
	for w, word := range row {
		if word == 0 {
			continue
		}
		row[w] = 0
		base := w << slotWordShift
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			x := p.rob.buf[base|b]
			if x == nil {
				continue
			}
			hit := false
			if x.src1.prod == e {
				x.src1 = operand{ready: true, val: e.result, origProd: e}
				hit = true
			}
			if x.src2.prod == e {
				x.src2 = operand{ready: true, val: e.result, origProd: e}
				hit = true
			}
			if hit {
				p.markReady(x)
			}
		}
	}
}

// markReady flags a waiting entry with both operands available on the
// ready scoreboard (idempotent: setting a set bit is a no-op).
func (p *pipeline) markReady(e *entry) {
	if e.state != stWaiting || e.in.Op == isa.FENCE {
		return
	}
	if !e.src1.ready || !e.src2.ready {
		return
	}
	bitSet(p.readyM, e.slot)
}

// resolveFences completes a FENCE only when it reaches the head of the
// ROB, i.e. when every older instruction has committed — so
// commit-time effects (stores, cache flushes) are globally visible and
// pending value-prediction verifications have finished before any
// younger instruction issues. This is what lets the timing-window
// channel observe prediction outcomes through FENCE + RDTSC pairs, and
// what makes FLUSH; FENCE; LOAD a guaranteed miss.
func (p *pipeline) resolveFences() {
	if p.rob.len() == 0 {
		return
	}
	if e := p.rob.at(0); e.in.Op == isa.FENCE && e.state != stDone {
		e.state = stDone
		bitSet(p.doneM, e.slot)
		p.activity = true
	}
}

// commit retires fully-done entries in order, applying architectural
// and non-speculative microarchitectural effects. Retired entries move
// to the deferred-recycle list and return to the arena when the ROB
// next drains.
func (p *pipeline) commit(now uint64) {
	for n := 0; n < p.cfg.CommitWidth && p.rob.len() > 0; n++ {
		e := p.rob.at(0)
		if !e.fullyDone() {
			return
		}
		switch e.in.Op {
		case isa.STORE:
			p.m.Hier.Mem.Write(e.paddr, e.src2.val)
			p.m.Hier.InstallDirty(e.paddr)
		case isa.FLUSH:
			p.m.Hier.Flush(e.paddr)
			if sh := p.m.Shadow; sh != nil {
				sh.Remove(e.paddr)
			}
			if DebugTrace {
				dbg("%d: commit FLUSH pc=%d paddr=%#x", now, e.pc, e.paddr)
			}
		case isa.LOAD:
			if e.needInstall {
				p.m.Hier.Install(e.paddr)
				if sh := p.m.Shadow; sh != nil {
					// The line is architectural now; later accesses are
					// ordinary cache traffic.
					sh.Remove(e.paddr)
				}
			}
		case isa.HALT:
			p.halted = true
		case isa.FENCE:
			if len(p.fences) > 0 && p.fences[0] == e {
				copy(p.fences, p.fences[1:])
				p.fences = p.fences[:len(p.fences)-1]
			}
		}
		if e.in.Op.WritesDst() && e.in.Dst != isa.R0 {
			p.regs[e.in.Dst] = e.result
		}
		if p.rename[e.in.Dst] == e {
			p.rename[e.in.Dst] = nil
		}
		if p.cfg.CheckInvariants {
			if p.committedAny && e.seq <= p.lastCommitSeq {
				p.invErr = invariantf("commit out of program order: seq %d after %d", e.seq, p.lastCommitSeq)
			}
			p.lastCommitSeq, p.committedAny = e.seq, true
		}
		if h := p.m.OnCommit; h != nil {
			c := isa.Commit{PC: e.pc, Op: e.in.Op, NextPC: e.nextPC}
			if e.in.Op.WritesDst() && e.in.Dst != isa.R0 {
				c.WritesReg, c.Dst, c.Value = true, e.in.Dst, e.result
			}
			switch e.in.Op {
			case isa.LOAD, isa.FLUSH:
				c.Addr = e.addr
			case isa.STORE:
				c.Addr, c.StoreVal = e.addr, e.src2.val
			}
			h(c)
		}
		p.emit(trace.Commit, e, now, "")
		p.clearSlot(e.slot)
		p.rob.popFront()
		p.retired = append(p.retired, e)
		p.res.Retired++
		p.activity = true
		if p.halted {
			break
		}
	}
	if p.rob.len() == 0 && len(p.retired) > 0 {
		// Nothing in flight can re-source a retired producer anymore.
		for _, e := range p.retired {
			p.m.arena.release(e)
		}
		p.retired = p.retired[:0]
	}
}

// issueBudget is one cycle's worth of structural resources. A single
// hardware thread gets a fresh budget each cycle; SMT threads share
// one (RunSMT), which is what makes port contention cross-thread
// observable.
type issueBudget struct {
	ports int
	mem   int
	mul   int // the multiply/divide unit's issue slots
}

// recordConflict counts a ready instruction that could not issue.
func (p *pipeline) recordConflict() {
	p.res.PortConflicts++
	p.activity = true
	if p.cfg.RecordConflicts {
		for uint64(len(p.res.ConflictSeries)) <= p.res.Cycles {
			p.res.ConflictSeries = append(p.res.ConflictSeries, 0)
		}
		p.res.ConflictSeries[p.res.Cycles]++
	}
}

// issue selects ready entries oldest-first and starts execution,
// bounded by the cycle's remaining issue ports and memory ports. The
// select priority is free: the ready scoreboard is scanned in ring
// order from the ROB head, which is fetch-seq order by construction,
// so the old insertion sort disappears. Entries enter the scoreboard
// at rename, wakeup or replay re-sourcing, never by scanning the ROB.
func (p *pipeline) issue(now uint64, budget *issueBudget) error {
	// Entries younger than the oldest unresolved FENCE may not issue —
	// and per the legacy semantics they neither consume ports nor count
	// as conflicts, so the scan simply stops at the fence's slot.
	limit := p.rob.n
	for _, f := range p.fences {
		if f.state != stDone {
			limit = p.ringIndex(f.slot)
			break
		}
	}
	a0, a1, b0, b1 := p.ringSegs(limit)
	for seg := 0; seg < 2; seg++ {
		lo, hi := a0, a1
		if seg == 1 {
			lo, hi = b0, b1
		}
		for w := lo >> slotWordShift; w<<slotWordShift < hi; w++ {
			segMask := wordMask(lo, hi, w)
			var seen uint64
			for {
				word := p.readyM[w] & segMask &^ seen
				if word == 0 {
					break
				}
				b := uint(bits.TrailingZeros64(word))
				seen |= 1 << b
				slot := w<<slotWordShift | int(b)
				e := p.rob.buf[slot]
				if budget.ports <= 0 {
					// Ready but no issue port left this cycle: the structural
					// contention an SMT co-runner feels (volatile channel).
					p.recordConflict()
					continue
				}
				switch e.in.Op {
				case isa.LOAD, isa.STORE, isa.FLUSH:
					if budget.mem <= 0 {
						continue
					}
					ok, err := p.issueMem(e, p.ringIndex(slot), now)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
					budget.mem--
				case isa.MUL, isa.MULHU, isa.DIVU, isa.REMU:
					// The multiply/divide unit has its own (narrow) issue port —
					// the port-type asymmetry SMoTherSpectre-style fingerprinting
					// keys on.
					if budget.mul <= 0 {
						p.recordConflict()
						continue
					}
					budget.mul--
					e.result = p.aluResult(e)
					e.state = stExecuting
					p.finishAtA[slot] = now + p.aluLatency(e.in.Op)
				case isa.RDTSC:
					// Serializing read of the time base: waits for all older
					// instructions, like rdtscp.
					if !p.allDoneBefore(p.ringIndex(slot)) {
						continue
					}
					e.result = now
					e.state = stExecuting
					p.finishAtA[slot] = now + 1
				default:
					e.result = p.aluResult(e)
					e.state = stExecuting
					p.finishAtA[slot] = now + p.aluLatency(e.in.Op)
				}
				bitClear(p.readyM, slot)
				bitSet(p.execM, slot)
				if p.finishAtA[slot] < p.nextFinish {
					p.nextFinish = p.finishAtA[slot]
				}
				p.emit(trace.Issue, e, now, "")
				p.res.Issued++
				p.activity = true
				budget.ports--
			}
		}
	}
	return nil
}

func (p *pipeline) aluLatency(op isa.Op) uint64 {
	switch op {
	case isa.MUL, isa.MULHU:
		return p.cfg.MulLatency
	case isa.DIVU, isa.REMU:
		return p.cfg.DivLatency
	}
	return p.cfg.ALULatency
}

func (p *pipeline) aluResult(e *entry) uint64 {
	a, b := e.src1.val, e.src2.val
	imm := uint64(e.in.Imm)
	switch e.in.Op {
	case isa.MOVI:
		return imm
	case isa.MOV:
		return a
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.MUL:
		return a * b
	case isa.MULHU:
		hi, _ := isa.Mul128(a, b)
		return hi
	case isa.DIVU:
		if b == 0 {
			return ^uint64(0)
		}
		return a / b
	case isa.REMU:
		if b == 0 {
			return a
		}
		return a % b
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.XOR:
		return a ^ b
	case isa.SLTU:
		if a < b {
			return 1
		}
		return 0
	case isa.ADDI:
		return a + imm
	case isa.ANDI:
		return a & imm
	case isa.SHLI:
		return a << (imm & 63)
	case isa.SHRI:
		return a >> (imm & 63)
	case isa.JALR:
		return uint64(e.pc + 1) // the link; the jump resolves in finish
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.NOP:
		return 0
	}
	return 0
}

// issueMem starts a memory-class instruction. It returns false when
// the instruction must stall this cycle (memory disambiguation).
func (p *pipeline) issueMem(e *entry, idx int, now uint64) (bool, error) {
	e.addr = e.src1.val + uint64(e.in.Imm)
	e.paddr = e.addr + p.proc.PhysBase

	switch e.in.Op {
	case isa.STORE, isa.FLUSH:
		// Address (and data, for stores) computed; effects at commit.
		e.state = stExecuting
		p.finishAtA[e.slot] = now + 1
		if DebugTrace {
			dbg("%d: issue %v pc=%d paddr=%#x", now, e.in.Op, e.pc, e.paddr)
		}
		return true, nil
	}

	// LOAD: conservative disambiguation — all older stores must have
	// known addresses; the youngest older store to the same word
	// forwards its data. The store scoreboard is scanned youngest-first
	// (descending ring order), so non-store entries cost nothing.
	a0, a1, b0, b1 := p.ringSegs(idx)
	for seg := 1; seg >= 0; seg-- {
		lo, hi := a0, a1
		if seg == 1 {
			lo, hi = b0, b1
		}
		for w := (hi - 1) >> slotWordShift; w >= 0 && (w+1)<<slotWordShift > lo; w-- {
			word := p.storeM[w] & wordMask(lo, hi, w)
			for word != 0 {
				b := 63 - uint(bits.LeadingZeros64(word))
				word &^= 1 << b
				slot := w<<slotWordShift | int(b)
				s := p.rob.buf[slot]
				if !s.src1.ready {
					return false, nil // unknown older store address
				}
				if s.src1.val+uint64(s.in.Imm) != e.addr {
					continue
				}
				if !s.src2.ready {
					return false, nil // matching store, data not ready
				}
				e.result = s.src2.val
				e.actual = s.src2.val
				e.fwdFrom = s
				e.state = stExecuting
				p.finishAtA[e.slot] = now + 1
				p.res.Forwards++
				return true, nil
			}
		}
	}

	// Shadow buffer (EffectsRecompute): a line a still-speculative load
	// already fetched is re-derived near the core instead of re-touching
	// the hierarchy — near-L1 latency, no cache state, no MSHR, and no
	// VPS engagement (like any other hit, the value is simply there).
	if sh := p.m.Shadow; sh != nil && sh.Lookup(e.paddr) {
		lat := sh.Latency
		if p.m.Noise.HitJitter > 0 {
			lat += uint64(p.m.Rng.Int63n(int64(p.m.Noise.HitJitter) + 1))
		}
		e.needInstall = true
		e.actual = p.m.Hier.Mem.Read(e.paddr)
		e.result = e.actual
		e.state = stExecuting
		p.finishAtA[e.slot] = now + lat
		if DebugTrace {
			dbg("%d: issue LOAD pc=%d paddr=%#x served=shadow lat=%d", now, e.pc, e.paddr, lat)
		}
		return true, nil
	}

	// Miss-status holding registers: a load that will miss the L1 needs
	// a free MSHR; with all of them busy it must retry next cycle.
	if !p.m.Hier.L1.Contains(e.paddr) && p.outstandingMisses() >= p.cfg.MSHRs {
		return false, nil
	}

	install := p.cfg.Effects == EffectsImmediate
	lat, served := p.m.Hier.Access(e.paddr, install)
	if DebugTrace {
		dbg("%d: issue LOAD pc=%d paddr=%#x served=%v lat=%d", now, e.pc, e.paddr, served, lat)
	}
	if served == mem.LevelMem && p.m.Noise.MemJitter > 0 {
		lat += uint64(p.m.Rng.Int63n(int64(p.m.Noise.MemJitter) + 1))
	} else if served != mem.LevelMem && p.m.Noise.HitJitter > 0 {
		lat += uint64(p.m.Rng.Int63n(int64(p.m.Noise.HitJitter) + 1))
	}
	if !install {
		e.needInstall = true
		if sh := p.m.Shadow; sh != nil && served != mem.LevelL1 {
			sh.Fill(e.paddr)
		}
	}
	e.actual = p.m.Hier.Mem.Read(e.paddr)
	e.state = stExecuting
	if served != mem.LevelL1 {
		p.res.LoadMisses++
		e.missLoad = true
		bitSet(p.missM, e.slot)
	}
	if served != mem.LevelMem {
		// Cache hit (L1 or L2): the load-based VPS is not engaged
		// (Sec. II: train/modify/trigger all require a cache miss).
		e.result = e.actual
		p.finishAtA[e.slot] = now + lat
		return true, nil
	}

	// Full miss: consult the Value Prediction System.
	e.vpsEngaged = true
	pred := p.m.Pred.Predict(p.ctxFor(e))
	if pred.Hit {
		p.emit(trace.Predict, e, now, "")
		// Forward the speculated value next cycle; verification fires
		// when the real data arrives.
		e.predicted = true
		e.pred = pred
		e.result = pred.Value
		p.finishAtA[e.slot] = now + 1
		p.verifyAtA[e.slot] = now + lat
		bitSet(p.pendVM, e.slot)
		if now+lat < p.nextVerify {
			p.nextVerify = now + lat
		}
		p.res.Predictions++
	} else {
		e.result = e.actual
		p.finishAtA[e.slot] = now + lat
		p.res.NoPredictions++
	}
	return true, nil
}

// outstandingMisses counts loads currently occupying an MSHR: issued,
// serving beyond the L1, and not yet written back (for predicted loads
// the miss completes at verification).
func (p *pipeline) outstandingMisses() int {
	n := 0
	now := p.m.Cycle
	for w, word := range p.missM {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			slot := w<<slotWordShift | b
			e := p.rob.buf[slot]
			if e.predicted {
				if !e.verified && p.verifyAtA[slot] > now {
					n++
				}
				continue
			}
			if e.state == stExecuting && p.finishAtA[slot] > now {
				n++
			}
		}
	}
	return n
}

// replayDependents re-executes only the dependence closure of a
// mispredicted load: every younger entry that (transitively) consumed
// its value is reset to waiting and re-sourced from the corrected
// result. Side effects its speculative execution already caused (cache
// fills of wrong-path dependent loads) remain — the transient channel
// exists under selective replay too.
//
// Closure membership is an epoch stamp on the entry rather than a
// side-table: the machine's epoch counter is bumped per traversal, the
// mispredicted load is stamped, and each younger entry joins by
// carrying a stamped producer. The traversal is a single pass in ROB
// (= fetch sequence) order, so replay is allocation-free and its order
// is deterministic by seq.
func (p *pipeline) replayDependents(load *entry, idx int, now uint64) {
	p.m.replayEpoch++
	epoch := p.m.replayEpoch
	load.replayMark = epoch
	// Once a store with an affected ADDRESS is replayed, every younger
	// load's disambiguation decision is suspect: replay them all.
	storeAddrHazard := false
	for j := idx + 1; j < p.rob.len(); j++ {
		e := p.rob.at(j)
		hit := marked(e.src1.origProd, epoch) || marked(e.src2.origProd, epoch) ||
			marked(e.fwdFrom, epoch) // store-buffer forwards carry data too
		if e.in.Op == isa.LOAD && storeAddrHazard {
			hit = true
		}
		if !hit {
			continue
		}
		e.replayMark = epoch
		p.res.Replayed++
		if e.in.Op == isa.STORE && marked(e.src1.origProd, epoch) {
			storeAddrHazard = true
		}
		if e.state != stWaiting {
			p.emit(trace.Squash, e, now, "replay")
		}
		p.resetForReplay(e)
	}
}

// marked reports membership in the replay closure of the given epoch.
func marked(e *entry, epoch uint64) bool {
	return e != nil && e.replayMark == epoch
}

// resetForReplay returns an entry to the waiting state with operands
// re-sourced from their original producers.
func (p *pipeline) resetForReplay(e *entry) {
	resrc := func(o *operand) {
		if o.origProd == nil {
			return // architectural value: still correct
		}
		if o.origProd.fullyDone() {
			*o = operand{ready: true, val: o.origProd.result, origProd: o.origProd}
		} else {
			bitSet(p.consRow(o.origProd.slot), e.slot)
			*o = operand{ready: false, prod: o.origProd, origProd: o.origProd}
		}
	}
	resrc(&e.src1)
	resrc(&e.src2)
	e.state = stWaiting
	e.predicted = false
	e.verified = false
	e.vpsEngaged = false
	e.missLoad = false
	e.needInstall = false
	e.fwdFrom = nil
	// Drop the slot from every state scoreboard (its own consumer row
	// survives: registrations against this entry stay valid across the
	// replay) and clear the stale deadline.
	p.clearSched(e.slot)
	p.finishAtA[e.slot] = 0
	p.markReady(e)
}

// squashAfter drops every entry younger than rob[idx], rebuilds the
// rename map, and redirects fetch to newPC after stallUntil. Squashed
// entries return to the arena immediately: only younger entries could
// reference them, and those are squashed with them.
func (p *pipeline) squashAfter(idx int, newPC int, stallUntil uint64) {
	cutoff := p.rob.at(idx).seq
	if p.m.Tracer.Enabled() {
		for i := idx + 1; i < p.rob.len(); i++ {
			p.emit(trace.Squash, p.rob.at(i), p.m.Cycle, "")
		}
	}
	p.res.Squashed += uint64(p.rob.len() - idx - 1)
	// Under recomputation, the squash also erases the speculative shadow
	// state: whatever the squashed loads fetched evaporates without ever
	// having touched the hierarchy. (Selective replay keeps side effects
	// by design and never reaches here.)
	if sh := p.m.Shadow; sh != nil {
		sh.Squash()
	}
	// Purge the fence list of squashed entries, then vacate each
	// squashed slot: one mask clear drops it from every scoreboard
	// (there is no ready list left to purge).
	for len(p.fences) > 0 && p.fences[len(p.fences)-1].seq > cutoff {
		p.fences = p.fences[:len(p.fences)-1]
	}
	for i := idx + 1; i < p.rob.len(); i++ {
		e := p.rob.at(i)
		p.clearSlot(e.slot)
		p.m.arena.release(e)
	}
	p.rob.truncate(idx + 1)
	for r := range p.rename {
		p.rename[r] = nil
	}
	for i := 0; i < p.rob.len(); i++ {
		e := p.rob.at(i)
		if e.in.Op.WritesDst() && e.in.Dst != isa.R0 {
			p.rename[e.in.Dst] = e
		}
	}
	p.fetchPC = newPC
	if stallUntil > p.fetchStallUntil {
		p.fetchStallUntil = stallUntil
	}
	p.fetchDone = false
	p.halted = false
	p.activity = true
}

// fetch renames up to FetchWidth instructions into the ROB, following
// unconditional jumps immediately and predicting conditional branches
// not-taken. Entries come from the machine's arena.
func (p *pipeline) fetch(now uint64) {
	if p.fetchDone || now < p.fetchStallUntil {
		return
	}
	for n := 0; n < p.cfg.FetchWidth && p.rob.len() < p.cfg.ROBSize && !p.fetchDone; n++ {
		if p.fetchPC < 0 || p.fetchPC >= len(p.proc.Prog.Code) {
			// Validate guarantees HALT-terminated programs; reaching
			// here means a squash redirected past the end.
			p.fetchDone = true
			p.activity = true
			return
		}
		in := p.proc.Prog.Code[p.fetchPC]
		e := p.m.arena.alloc()
		// The ring slot is fixed for the entry's whole residency; it is
		// assigned before capture so consumer registration can index the
		// producer's bitmap row, and the slot's SoA lanes are scrubbed of
		// the previous occupant's values.
		e.slot = p.slotAt(p.rob.len())
		p.seqA[e.slot] = p.seqBase + p.seq
		p.finishAtA[e.slot] = 0
		p.verifyAtA[e.slot] = 0
		e.seq, e.pc, e.in = p.seqBase+p.seq, p.fetchPC, in
		p.seq++
		e.src1 = p.capture(in.Src1, in.Op.ReadsSrc1(), e)
		e.src2 = p.capture(in.Src2, in.Op.ReadsSrc2(), e)

		switch in.Op {
		case isa.JMP:
			e.state = stDone
			bitSet(p.doneM, e.slot)
			p.fetchPC = in.Target
		case isa.JAL:
			// Call: the link value is known at fetch, the target is
			// static — resolve both immediately.
			e.state = stDone
			bitSet(p.doneM, e.slot)
			e.result = uint64(e.pc + 1)
			p.fetchPC = in.Target
		case isa.HALT:
			e.state = stDone
			bitSet(p.doneM, e.slot)
			p.fetchDone = true
			p.fetchPC++
		case isa.NOP:
			e.state = stDone
			bitSet(p.doneM, e.slot)
			p.fetchPC++
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
			// Direction prediction: static not-taken, or the bimodal
			// counter when enabled.
			if p.cfg.BimodalBranch && p.predictTaken(p.fetchPC) {
				p.fetchPC = in.Target
			} else {
				p.fetchPC++
			}
		default:
			p.fetchPC++
		}
		e.nextPC = p.fetchPC
		if p.m.Tracer.Enabled() {
			// Build the disassembly text only when someone records it.
			p.emit(trace.Fetch, e, now, in.String())
		}
		p.rob.push(e)
		p.res.Fetched++
		p.activity = true
		if in.Op == isa.STORE {
			bitSet(p.storeM, e.slot)
		}
		if in.Op == isa.FENCE {
			p.fences = append(p.fences, e)
		}
		if in.Op.WritesDst() && in.Dst != isa.R0 {
			p.rename[in.Dst] = e
		}
		p.markReady(e)
	}
}

// capture resolves a source register at rename time: a concrete value
// from the architectural file or a completed producer, or a tag on the
// in-flight producer — in which case the consumer is registered on the
// producer's wakeup list.
func (p *pipeline) capture(r isa.Reg, needed bool, consumer *entry) operand {
	if !needed || r == isa.R0 {
		return operand{ready: true}
	}
	if prod := p.rename[r]; prod != nil {
		if prod.state == stDone {
			return operand{ready: true, val: prod.result, origProd: prod}
		}
		bitSet(p.consRow(prod.slot), consumer.slot)
		return operand{ready: false, prod: prod, origProd: prod}
	}
	return operand{ready: true, val: p.regs[r]}
}

// predictTaken consults the 2-bit bimodal counter for the branch at pc.
func (p *pipeline) predictTaken(pc int) bool {
	return p.bimodal[pc%len(p.bimodal)] >= 2
}

// trainBimodal updates the counter with the resolved direction.
func (p *pipeline) trainBimodal(pc int, taken bool) {
	c := &p.bimodal[pc%len(p.bimodal)]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}
