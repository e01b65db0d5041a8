package cpu

import "math/bits"

// This file is the bitmap scheduling core: fixed-width scoreboards
// over the ROB ring replacing the pointer-based ready list and
// per-producer consumer slices (the SupraX insight — bitmap wakeup is
// "44× cheaper than CAM"-style pointer chasing; see DESIGN.md §10).
//
// Every mask is indexed by *ring slot* — the entry's physical index in
// robQ.buf. Slots are assigned at fetch and stable for the entry's
// whole ROB residency, and because the ring allocates slots in fetch
// order, scanning slots in ring order from the head is exactly
// oldest-first (seq) order. That is what deletes the old issue()
// insertion sort: the oldest-first select priority is a
// TrailingZeros64 sweep.
//
// Wakeup is one OR: each producer owns a consumer *row* (mwords words
// in consM), and rename/replay re-sourcing set the consumer's slot bit
// in the producer's row. Broadcast walks the row's set bits instead of
// a pointer slice. A row bit can go stale (the consumer squashed and
// its slot reused); wake tolerates that exactly like the old pointer
// list did, by re-checking that the slot's current occupant still
// names the producer.

const slotWordShift = 6 // 64 slots per mask word

// bitSet, bitClear, bitHas are the single-slot mask primitives.
func bitSet(m []uint64, slot int)   { m[slot>>slotWordShift] |= 1 << (uint(slot) & 63) }
func bitClear(m []uint64, slot int) { m[slot>>slotWordShift] &^= 1 << (uint(slot) & 63) }
func bitHas(m []uint64, slot int) bool {
	return m[slot>>slotWordShift]&(1<<(uint(slot)&63)) != 0
}

// maskAny reports whether any bit is set.
func maskAny(m []uint64) bool {
	for _, w := range m {
		if w != 0 {
			return true
		}
	}
	return false
}

// maskZero clears every word.
func maskZero(m []uint64) {
	for i := range m {
		m[i] = 0
	}
}

// maskCount returns the total population count (invariant checking).
func maskCount(m []uint64) int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// wordMask returns the bits of mask word w that fall inside the
// physical slot range [lo, hi).
func wordMask(lo, hi, w int) uint64 {
	base := w << slotWordShift
	l := lo - base
	if l < 0 {
		l = 0
	}
	h := hi - base
	if h > 64 {
		h = 64
	}
	if h <= l {
		return 0
	}
	return (^uint64(0) >> (64 - uint(h-l))) << uint(l)
}

// maskFull reports whether every bit in the physical slot range
// [lo, hi) is set.
func maskFull(m []uint64, lo, hi int) bool {
	for w := lo >> slotWordShift; w<<slotWordShift < hi; w++ {
		if seg := wordMask(lo, hi, w); m[w]&seg != seg {
			return false
		}
	}
	return true
}

// initSched (re)sizes the pipeline's scoreboards and SoA slices for a
// ROB of the given capacity. A pooled pipeline of the same geometry is
// a no-op: putPipeline vacates every still-occupied slot, so the masks
// are all-zero between runs, and the SoA lanes need no zeroing at all
// because fetch scrubs a slot's lanes when it assigns the slot.
func (p *pipeline) initSched(capacity int) {
	words := (capacity + 63) >> slotWordShift
	if p.mwords == words && len(p.seqA) == capacity {
		return
	}
	p.mwords = words
	p.readyM = make([]uint64, words)
	p.execM = make([]uint64, words)
	p.pendVM = make([]uint64, words)
	p.doneM = make([]uint64, words)
	p.missM = make([]uint64, words)
	p.storeM = make([]uint64, words)
	p.consM = make([]uint64, capacity*words)
	p.seqA = make([]uint64, capacity)
	p.finishAtA = make([]uint64, capacity)
	p.verifyAtA = make([]uint64, capacity)
}

// consRow returns producer slot's consumer bitmap row.
func (p *pipeline) consRow(slot int) []uint64 {
	i := slot * p.mwords
	return p.consM[i : i+p.mwords]
}

// ringSegs splits the first n live ring positions into their (at most
// two) contiguous physical slot ranges [a0,a1) then [b0,b1), in ring
// (= fetch seq) order.
func (p *pipeline) ringSegs(n int) (a0, a1, b0, b1 int) {
	a0 = p.rob.head
	a1 = a0 + n
	if c := len(p.rob.buf); a1 > c {
		return a0, c, 0, a1 - c
	}
	return a0, a1, 0, 0
}

// ringIndex converts a physical slot to its ring position (ROB index).
func (p *pipeline) ringIndex(slot int) int {
	i := slot - p.rob.head
	if i < 0 {
		i += len(p.rob.buf)
	}
	return i
}

// slotAt converts a ring position (ROB index) to its physical slot.
func (p *pipeline) slotAt(idx int) int {
	s := p.rob.head + idx
	if c := len(p.rob.buf); s >= c {
		s -= c
	}
	return s
}

// allDoneBefore reports whether every entry older than ring position
// idx is fully done (RDTSC's serializing wait).
func (p *pipeline) allDoneBefore(idx int) bool {
	a0, a1, b0, b1 := p.ringSegs(idx)
	return maskFull(p.doneM, a0, a1) && maskFull(p.doneM, b0, b1)
}

// clearSched drops a slot from every state scoreboard. The consumer
// row is left alone: replay re-sourcing keeps consumers registered
// against a producer that is merely reset to waiting.
func (p *pipeline) clearSched(slot int) {
	bitClear(p.readyM, slot)
	bitClear(p.execM, slot)
	bitClear(p.pendVM, slot)
	bitClear(p.doneM, slot)
	bitClear(p.missM, slot)
}

// clearSlot vacates a slot entirely (commit or squash): all state
// bits, the op-class bit, and the consumer row. The row is almost
// always empty already (wake clears a row as it broadcasts), so it is
// written only when a bit remains.
func (p *pipeline) clearSlot(slot int) {
	p.clearSched(slot)
	bitClear(p.storeM, slot)
	if row := p.consRow(slot); maskAny(row) {
		maskZero(row)
	}
}
