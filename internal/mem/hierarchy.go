package mem

import (
	"fmt"
	"math/bits"
)

// memPageShift sizes memory pages: one page covers 2^memPageShift
// consecutive word addresses (the programs in this repo address words
// at byte granularity, so pages are keyed by address, not address/8).
// A page is 1 KiB: a trial writes a few words on a few pages, and
// Reset clears each written page whole, so a small page keeps that
// clear near the trial's own write set.
const memPageShift = 7

// memPageSize is the number of addressable words per page.
const memPageSize = 1 << memPageShift

// memPage is one allocated span of the sparse address space.
type memPage struct {
	words [memPageSize]uint64
	// written marks the page as touched by a Write since the last
	// Reset, i.e. enqueued on Memory.dirty. Pages not on that list are
	// all-zero by construction, so Reset skips them.
	written bool
}

// Memory is the backing store: a sparse 64-bit word space plus a fixed
// access latency (DRAM). Storage is paged — the page table is a map,
// but the hot path is an O(1) slice index within the last-touched page,
// and reads of never-written pages allocate nothing.
type Memory struct {
	Latency uint64
	pages   map[uint64]*memPage
	lastNum uint64   // page number of last, when last != nil
	last    *memPage // most recently touched page (spatial locality)
	dirty   []*memPage
	Reads   uint64
	Writes  uint64
}

// NewMemory returns an empty memory with the given access latency.
func NewMemory(latency uint64) *Memory {
	return &Memory{Latency: latency, pages: make(map[uint64]*memPage)}
}

// page returns the page holding addr, or nil if never written.
func (m *Memory) page(addr uint64) *memPage {
	num := addr >> memPageShift
	if m.last != nil && m.lastNum == num {
		return m.last
	}
	p := m.pages[num]
	if p != nil {
		m.lastNum, m.last = num, p
	}
	return p
}

// Read returns the 64-bit word at addr (zero if never written).
func (m *Memory) Read(addr uint64) uint64 {
	m.Reads++
	if p := m.page(addr); p != nil {
		return p.words[addr&(memPageSize-1)]
	}
	return 0
}

// Write stores a 64-bit word at addr.
func (m *Memory) Write(addr, v uint64) {
	m.Writes++
	p := m.page(addr)
	if p == nil {
		p = new(memPage)
		num := addr >> memPageShift
		m.pages[num] = p
		m.lastNum, m.last = num, p
	}
	if !p.written {
		p.written = true
		m.dirty = append(m.dirty, p)
	}
	p.words[addr&(memPageSize-1)] = v
}

// Peek reads without counting (for assertions and result extraction).
func (m *Memory) Peek(addr uint64) uint64 {
	if p := m.page(addr); p != nil {
		return p.words[addr&(memPageSize-1)]
	}
	return 0
}

// Reset restores the memory to its as-new state while keeping its page
// storage allocated: every word reads as zero again and the counters
// clear. Recycling pages across experiment trials removes what used to
// be the dominant allocation source of trial construction. Only pages
// actually written since the previous Reset are cleared — the dirty
// list bounds the work by the trial's own write set, not the total
// pages the memory has ever allocated.
func (m *Memory) Reset() {
	for _, p := range m.dirty {
		*p = memPage{}
	}
	m.dirty = m.dirty[:0]
	m.Reads, m.Writes = 0, 0
}

// Snapshot copies the live (nonzero) memory contents for golden-model
// comparison. Words that were never written read as zero, so a
// snapshot omitting zero-valued words is equivalent under the
// read-as-zero semantics every consumer (the differential oracle
// included) already assumes.
func (m *Memory) Snapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for num, p := range m.pages {
		base := num << memPageShift
		for i, v := range p.words {
			if v != 0 {
				out[base+uint64(i)] = v
			}
		}
	}
	return out
}

// TLBConfig describes the translation lookaside buffer.
type TLBConfig struct {
	Entries     int
	PageBytes   uint64
	HitLatency  uint64 // added on a TLB hit
	MissLatency uint64 // page-walk penalty added on a miss
}

// tlbEntry is one translation: a page number and its last-touch tick.
type tlbEntry struct {
	page uint64
	last uint64
}

// TLB is a fully-associative LRU translation cache. Translation itself
// is identity (the Machine applies per-process physical offsets), so
// the TLB contributes timing only — enough for the paper's threat
// model, which assumes virtual-address-indexed predictors. The entry
// array is a fixed slice scanned linearly: at the default 64 entries
// that is faster than any map, and Access never allocates.
type TLB struct {
	cfg       TLBConfig
	pageShift uint       // log2(cfg.PageBytes); validated power of two
	ents      []tlbEntry // valid entries; capacity fixed at cfg.Entries
	tick      uint64
	Hits      uint64
	Miss      uint64
}

// NewTLB builds a TLB from cfg.
func NewTLB(cfg TLBConfig) (*TLB, error) {
	if cfg.Entries <= 0 {
		return nil, fmt.Errorf("mem: tlb entries %d invalid", cfg.Entries)
	}
	if cfg.PageBytes == 0 || cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		return nil, fmt.Errorf("mem: tlb page size %d not a power of two", cfg.PageBytes)
	}
	return &TLB{cfg: cfg, pageShift: uint(bits.TrailingZeros64(cfg.PageBytes)),
		ents: make([]tlbEntry, 0, cfg.Entries)}, nil
}

// Access translates addr, returning the latency contribution.
func (t *TLB) Access(addr uint64) uint64 {
	page := addr >> t.pageShift
	t.tick++
	for i := range t.ents {
		if t.ents[i].page == page {
			t.ents[i].last = t.tick
			t.Hits++
			return t.cfg.HitLatency
		}
	}
	t.Miss++
	if len(t.ents) >= t.cfg.Entries {
		// Evict the least recently used entry (ticks are unique, so the
		// victim is the same one the map-based implementation chose).
		victim := 0
		for i := 1; i < len(t.ents); i++ {
			if t.ents[i].last < t.ents[victim].last {
				victim = i
			}
		}
		t.ents[victim] = tlbEntry{page: page, last: t.tick}
		return t.cfg.MissLatency
	}
	t.ents = append(t.ents, tlbEntry{page: page, last: t.tick})
	return t.cfg.MissLatency
}

// InvalidateAll empties the TLB.
func (t *TLB) InvalidateAll() { t.ents = t.ents[:0] }

// Reset restores the TLB to its just-built state: empty, with the LRU
// clock and counters at zero.
func (t *TLB) Reset() {
	t.ents = t.ents[:0]
	t.tick = 0
	t.Hits, t.Miss = 0, 0
}

// Level identifies where an access was satisfied.
type Level int

// Access service levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelMem
	// LevelShadow is a load the speculative Shadow buffer served; the
	// hierarchy's Access never returns it.
	LevelShadow
)

// String names the level as traces and reports print it.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "mem"
	case LevelShadow:
		return "shadow"
	}
	return "?"
}

// Hierarchy composes L1 + optional L2 + DRAM + optional TLB.
type Hierarchy struct {
	L1  *Cache
	L2  *Cache // may be nil
	TLB *TLB   // may be nil
	Mem *Memory

	// NextLinePrefetch enables a simple next-line prefetcher: a demand
	// miss that goes to DRAM also fills addr+linesize into the L2 (or
	// L1 when there is no L2). Off by default; the attack ablations use
	// it to show how spatial prefetching interacts with the
	// persistent-channel probes.
	NextLinePrefetch bool
	Prefetches       uint64

	// peers are other cores' hierarchies sharing this L2 and memory;
	// stores and flushes invalidate their private L1 copies
	// (write-invalidate coherence).
	peers         []*Hierarchy
	Invalidations uint64

	// metrics, when attached (AttachMetrics), records per-level access
	// latency histograms and publishes the counters above. metricsCache
	// survives Reset so a pooled hierarchy re-attaching to the same
	// registry reuses its resolved handles.
	metrics      *hierMetrics
	metricsCache *hierMetrics
}

// AttachPeer links two per-core hierarchies that share an L2 and
// memory (use NewMulticore for the common case). Coherence is
// write-invalidate: a store or CLFLUSH on one core removes the line
// from every peer's L1.
func (h *Hierarchy) AttachPeer(p *Hierarchy) {
	h.peers = append(h.peers, p)
	p.peers = append(p.peers, h)
}

// NewMulticore builds n per-core hierarchies with private L1s and TLBs
// sharing one L2 and one memory, all cross-attached for coherence.
func NewMulticore(n int) []*Hierarchy {
	if n < 1 {
		n = 1
	}
	l2, err := NewCache(CacheConfig{Name: "L2", Sets: 512, Ways: 8, LineBytes: 64, HitLatency: 12})
	if err != nil {
		panic(err)
	}
	shared := NewMemory(150)
	out := make([]*Hierarchy, n)
	for i := range out {
		l1, err := NewCache(CacheConfig{Name: "L1D", Sets: 64, Ways: 8, LineBytes: 64, HitLatency: 3})
		if err != nil {
			panic(err)
		}
		tlb, err := NewTLB(TLBConfig{Entries: 64, PageBytes: 4096, HitLatency: 0, MissLatency: 20})
		if err != nil {
			panic(err)
		}
		out[i] = &Hierarchy{L1: l1, L2: l2, TLB: tlb, Mem: shared}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out[i].AttachPeer(out[j])
		}
	}
	return out
}

// Reset restores an unshared hierarchy to its just-built state: cold
// caches and TLB, zeroed memory and counters, prefetcher off, no
// metrics sink. It lets one hierarchy be recycled across independent
// experiment trials without re-allocating its line arrays and pages.
// Peer links are left alone, so multicore hierarchies sharing an L2
// should not be pooled this way.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	if h.L2 != nil {
		h.L2.Reset()
	}
	if h.TLB != nil {
		h.TLB.Reset()
	}
	h.Mem.Reset()
	h.NextLinePrefetch = false
	h.Prefetches = 0
	h.Invalidations = 0
	h.metrics = nil
}

// invalidatePeers removes addr's line from every peer L1.
func (h *Hierarchy) invalidatePeers(addr uint64) {
	for _, p := range h.peers {
		if p.L1.Flush(addr) {
			h.Invalidations++
		}
	}
}

// DefaultHierarchy builds the configuration used throughout the
// evaluation: 32 KiB 8-way L1 (3 cycles), 256 KiB 8-way L2 (12
// cycles), 150-cycle DRAM, 64-entry TLB with a 20-cycle walk.
func DefaultHierarchy() *Hierarchy {
	l1, err := NewCache(CacheConfig{Name: "L1D", Sets: 64, Ways: 8, LineBytes: 64, HitLatency: 3})
	if err != nil {
		panic(err)
	}
	l2, err := NewCache(CacheConfig{Name: "L2", Sets: 512, Ways: 8, LineBytes: 64, HitLatency: 12})
	if err != nil {
		panic(err)
	}
	tlb, err := NewTLB(TLBConfig{Entries: 64, PageBytes: 4096, HitLatency: 0, MissLatency: 20})
	if err != nil {
		panic(err)
	}
	return &Hierarchy{L1: l1, L2: l2, TLB: tlb, Mem: NewMemory(150)}
}

// Access performs a demand access to physical address addr: it returns
// the total latency and the level that served it. When install is true
// (the normal case) missing lines are filled into the caches; when
// false the access leaves no microarchitectural trace below the level
// that served it — this implements the D-type "delay side-effects"
// defense (and InvisiSpec-style invisible speculative loads).
func (h *Hierarchy) Access(addr uint64, install bool) (latency uint64, served Level) {
	if h.TLB != nil {
		latency += h.TLB.Access(addr)
	}
	if h.L1.Lookup(addr) {
		latency += h.L1.Config().HitLatency
		h.observeLatency(latency, LevelL1)
		return latency, LevelL1
	}
	if h.L2 != nil && h.L2.Lookup(addr) {
		latency += h.L2.Config().HitLatency
		if install {
			h.L1.Insert(addr)
		}
		h.observeLatency(latency, LevelL2)
		return latency, LevelL2
	}
	latency += h.Mem.Latency
	if h.L2 != nil {
		latency += h.L2.Config().HitLatency
	}
	if install {
		if h.L2 != nil {
			h.L2.Insert(addr)
		}
		h.L1.Insert(addr)
		if h.NextLinePrefetch {
			next := h.L1.LineBase(addr) + h.L1.Config().LineBytes
			if h.L2 != nil {
				h.L2.Insert(next)
			} else {
				h.L1.Insert(next)
			}
			h.Prefetches++
		}
	}
	h.observeLatency(latency, LevelMem)
	return latency, LevelMem
}

// Install fills addr into all cache levels without charging latency;
// the pipeline uses it when a D-type-delayed load becomes
// architecturally visible at commit.
func (h *Hierarchy) Install(addr uint64) {
	if h.L2 != nil {
		h.L2.Insert(addr)
	}
	h.L1.Insert(addr)
}

// InstallDirty fills addr as modified (committed stores, write-back
// write-allocate): the line's later eviction or flush is a writeback.
// Peer L1 copies are invalidated (write-invalidate coherence).
func (h *Hierarchy) InstallDirty(addr uint64) {
	if h.L2 != nil {
		h.L2.InsertDirty(addr)
	}
	h.L1.InsertDirty(addr)
	h.invalidatePeers(addr)
}

// Flush evicts addr's line from every level and every peer L1
// (clflush is coherent).
func (h *Hierarchy) Flush(addr uint64) {
	h.L1.Flush(addr)
	if h.L2 != nil {
		h.L2.Flush(addr)
	}
	h.invalidatePeers(addr)
}

// Cached reports whether addr hits in any cache level, without
// touching LRU or statistics.
func (h *Hierarchy) Cached(addr uint64) bool {
	if h.L1.Contains(addr) {
		return true
	}
	return h.L2 != nil && h.L2.Contains(addr)
}

// InvalidateAll empties all caches and the TLB.
func (h *Hierarchy) InvalidateAll() {
	h.L1.InvalidateAll()
	if h.L2 != nil {
		h.L2.InvalidateAll()
	}
	if h.TLB != nil {
		h.TLB.InvalidateAll()
	}
}
