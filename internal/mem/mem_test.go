package mem

import (
	"testing"
	"testing/quick"
)

func newTestCache(t *testing.T, sets, ways int) *Cache {
	t.Helper()
	c, err := NewCache(CacheConfig{Name: "t", Sets: sets, Ways: ways, LineBytes: 64, HitLatency: 3})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{Name: "a", Sets: 0, Ways: 1, LineBytes: 64},
		{Name: "b", Sets: 3, Ways: 1, LineBytes: 64},
		{Name: "c", Sets: 4, Ways: 0, LineBytes: 64},
		{Name: "d", Sets: 4, Ways: 1, LineBytes: 48},
		{Name: "e", Sets: 4, Ways: 1, LineBytes: 0},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
	if err := (CacheConfig{Name: "ok", Sets: 64, Ways: 8, LineBytes: 64}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := newTestCache(t, 4, 2)
	if c.Lookup(0x100) {
		t.Error("cold cache should miss")
	}
	c.Insert(0x100)
	if !c.Lookup(0x100) {
		t.Error("inserted line should hit")
	}
	// Same line, different word offset.
	if !c.Lookup(0x108) {
		t.Error("same-line access should hit")
	}
	// Next line.
	if c.Lookup(0x140) {
		t.Error("different line should miss")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 2 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 1 set x 2 ways, 64B lines, 1 set means every line maps to set 0.
	c := newTestCache(t, 1, 2)
	c.Insert(0x000)
	c.Insert(0x040)
	// Touch 0x000 so 0x040 becomes LRU.
	if !c.Lookup(0x000) {
		t.Fatal("expected hit")
	}
	ev, was := c.Insert(0x080)
	if !was || ev != 0x040 {
		t.Errorf("evicted %#x (%v), want 0x40", ev, was)
	}
	if !c.Contains(0x000) || c.Contains(0x040) || !c.Contains(0x080) {
		t.Error("post-eviction contents wrong")
	}
	if c.Stats.Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats.Evictions)
	}
}

func TestCacheInsertExistingRefreshes(t *testing.T) {
	c := newTestCache(t, 1, 2)
	c.Insert(0x000)
	c.Insert(0x040)
	// Re-insert 0x000: must refresh, not duplicate.
	if _, was := c.Insert(0x000); was {
		t.Error("re-insert should not evict")
	}
	// Now 0x040 is LRU.
	if ev, was := c.Insert(0x080); !was || ev != 0x040 {
		t.Errorf("evicted %#x, want 0x40", ev)
	}
}

func TestCacheFlush(t *testing.T) {
	c := newTestCache(t, 4, 2)
	c.Insert(0x200)
	if !c.Flush(0x208) { // same line as 0x200
		t.Error("flush should find the line")
	}
	if c.Contains(0x200) {
		t.Error("line still present after flush")
	}
	if c.Flush(0x200) {
		t.Error("second flush should miss")
	}
	if c.Stats.Flushes != 1 {
		t.Errorf("flushes = %d", c.Stats.Flushes)
	}
}

func TestCacheInvalidateAll(t *testing.T) {
	c := newTestCache(t, 4, 2)
	for a := uint64(0); a < 0x400; a += 64 {
		c.Insert(a)
	}
	c.InvalidateAll()
	for a := uint64(0); a < 0x400; a += 64 {
		if c.Contains(a) {
			t.Fatalf("line %#x survived InvalidateAll", a)
		}
	}
}

func TestCacheSetMapping(t *testing.T) {
	c := newTestCache(t, 4, 1)
	// Addresses 0x000 and 0x100 map to the same set (line 0 and 4, 4 sets);
	// with 1 way the second insert must evict the first.
	c.Insert(0x000)
	if ev, was := c.Insert(0x100); !was || ev != 0x000 {
		t.Errorf("conflict eviction: got %#x (%v)", ev, was)
	}
	// 0x040 maps to set 1: no conflict.
	if _, was := c.Insert(0x040); was {
		t.Error("different set should not evict")
	}
}

func TestLineBase(t *testing.T) {
	c := newTestCache(t, 4, 1)
	if got := c.LineBase(0x1234); got != 0x1200 {
		t.Errorf("LineBase = %#x, want 0x1200", got)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory(150)
	if m.Read(0x10) != 0 {
		t.Error("unwritten memory should read 0")
	}
	m.Write(0x10, 42)
	if m.Read(0x10) != 42 || m.Peek(0x10) != 42 {
		t.Error("write not visible")
	}
	if m.Reads != 2 || m.Writes != 1 {
		t.Errorf("counters: reads=%d writes=%d", m.Reads, m.Writes)
	}
	snap := m.Snapshot()
	m.Write(0x10, 99)
	if snap[0x10] != 42 {
		t.Error("snapshot aliased live memory")
	}
}

func TestTLB(t *testing.T) {
	tlb, err := NewTLB(TLBConfig{Entries: 2, PageBytes: 4096, HitLatency: 1, MissLatency: 20})
	if err != nil {
		t.Fatal(err)
	}
	if lat := tlb.Access(0x0000); lat != 20 {
		t.Errorf("cold access latency = %d, want 20", lat)
	}
	if lat := tlb.Access(0x0100); lat != 1 {
		t.Errorf("same-page access latency = %d, want 1", lat)
	}
	tlb.Access(0x1000) // second page
	// Touch page 0 so page 1 becomes LRU.
	tlb.Access(0x0000)
	tlb.Access(0x2000) // third page: evicts page 1
	if lat := tlb.Access(0x1000); lat != 20 {
		t.Errorf("evicted page latency = %d, want 20", lat)
	}
	if tlb.Hits == 0 || tlb.Miss == 0 {
		t.Errorf("stats: hits=%d miss=%d", tlb.Hits, tlb.Miss)
	}
	tlb.InvalidateAll()
	if lat := tlb.Access(0x0000); lat != 20 {
		t.Error("invalidate did not clear TLB")
	}
}

func TestTLBConfigValidate(t *testing.T) {
	if _, err := NewTLB(TLBConfig{Entries: 0, PageBytes: 4096}); err == nil {
		t.Error("zero entries should fail")
	}
	if _, err := NewTLB(TLBConfig{Entries: 4, PageBytes: 1000}); err == nil {
		t.Error("non-power-of-two page should fail")
	}
}

func TestHierarchyLatencyOrdering(t *testing.T) {
	h := DefaultHierarchy()
	h.TLB = nil // isolate cache latencies
	addr := uint64(0x4000)

	missLat, lvl := h.Access(addr, true)
	if lvl != LevelMem {
		t.Fatalf("first access served by %v, want mem", lvl)
	}
	l1Lat, lvl := h.Access(addr, true)
	if lvl != LevelL1 {
		t.Fatalf("second access served by %v, want L1", lvl)
	}
	h.L1.Flush(addr)
	l2Lat, lvl := h.Access(addr, true)
	if lvl != LevelL2 {
		t.Fatalf("after L1 flush served by %v, want L2", lvl)
	}
	if !(l1Lat < l2Lat && l2Lat < missLat) {
		t.Errorf("latency ordering broken: L1=%d L2=%d mem=%d", l1Lat, l2Lat, missLat)
	}
}

func TestHierarchyInstallFlag(t *testing.T) {
	h := DefaultHierarchy()
	addr := uint64(0x8000)
	// No-install access must leave no trace.
	h.Access(addr, false)
	if h.Cached(addr) {
		t.Error("no-install access left cache state")
	}
	// Normal access installs in both levels.
	h.Access(addr, true)
	if !h.L1.Contains(addr) || !h.L2.Contains(addr) {
		t.Error("install access missing from caches")
	}
	// Flush clears both levels.
	h.Flush(addr)
	if h.Cached(addr) {
		t.Error("flush left a cached copy")
	}
}

func TestHierarchyDeferredInstall(t *testing.T) {
	h := DefaultHierarchy()
	addr := uint64(0xc000)
	h.Access(addr, false)
	h.Install(addr)
	if !h.L1.Contains(addr) || !h.L2.Contains(addr) {
		t.Error("Install did not fill caches")
	}
}

func TestHierarchyL2ServesAfterL1Evict(t *testing.T) {
	h := DefaultHierarchy()
	h.TLB = nil
	// Fill one L1 set (64 sets, 8 ways): 9 lines mapping to set 0 with
	// stride sets*linebytes = 64*64 = 4096.
	var addrs []uint64
	for i := 0; i < 9; i++ {
		addrs = append(addrs, uint64(i)*4096)
	}
	for _, a := range addrs {
		h.Access(a, true)
	}
	// First line was evicted from L1, but L2 (512 sets) still holds it.
	if h.L1.Contains(addrs[0]) {
		t.Skip("L1 did not evict; config changed")
	}
	_, lvl := h.Access(addrs[0], true)
	if lvl != LevelL2 {
		t.Errorf("re-access served by %v, want L2", lvl)
	}
}

func TestHierarchyWithoutL2(t *testing.T) {
	l1, _ := NewCache(CacheConfig{Name: "L1", Sets: 4, Ways: 2, LineBytes: 64, HitLatency: 3})
	h := &Hierarchy{L1: l1, Mem: NewMemory(100)}
	lat, lvl := h.Access(0x40, true)
	if lvl != LevelMem || lat != 100 {
		t.Errorf("got %d@%v, want 100@mem", lat, lvl)
	}
	lat, lvl = h.Access(0x40, true)
	if lvl != LevelL1 || lat != 3 {
		t.Errorf("got %d@%v, want 3@L1", lat, lvl)
	}
	h.Flush(0x40)
	h.InvalidateAll()
	if h.Cached(0x40) {
		t.Error("flush/invalidate failed without L2")
	}
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" || LevelMem.String() != "mem" {
		t.Error("level names wrong")
	}
	if Level(9).String() != "?" {
		t.Error("unknown level name")
	}
}

// Property: a Lookup immediately after Insert always hits, for any
// address.
func TestPropertyInsertThenLookupHits(t *testing.T) {
	c := newTestCache(t, 64, 8)
	f := func(addr uint64) bool {
		c.Insert(addr)
		return c.Lookup(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Flush always removes the line, for any address and any
// prior state.
func TestPropertyFlushRemoves(t *testing.T) {
	c := newTestCache(t, 16, 4)
	f := func(addr uint64, warm []uint64) bool {
		for _, w := range warm {
			c.Insert(w)
		}
		c.Insert(addr)
		c.Flush(addr)
		return !c.Contains(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cache occupancy never exceeds sets*ways distinct lines.
func TestPropertyBoundedOccupancy(t *testing.T) {
	const sets, ways = 8, 2
	c := newTestCache(t, sets, ways)
	f := func(addrs []uint64) bool {
		for _, a := range addrs {
			c.Insert(a)
		}
		count := 0
		seen := map[uint64]bool{}
		for _, a := range addrs {
			base := c.LineBase(a)
			if !seen[base] && c.Contains(a) {
				seen[base] = true
				count++
			}
		}
		return count <= sets*ways
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNextLinePrefetch(t *testing.T) {
	h := DefaultHierarchy()
	h.NextLinePrefetch = true
	addr := uint64(0x9000)
	h.Access(addr, true)
	if !h.L2.Contains(addr + 64) {
		t.Error("next line not prefetched into L2")
	}
	if h.L1.Contains(addr + 64) {
		t.Error("prefetch should fill L2, not L1")
	}
	if h.Prefetches != 1 {
		t.Errorf("prefetches = %d", h.Prefetches)
	}
	// No-install (D-type / invisible) accesses must not prefetch.
	h.Flush(addr)
	h.Flush(addr + 64)
	h.Access(addr, false)
	if h.Cached(addr + 64) {
		t.Error("no-install access prefetched")
	}
	// Without L2 the prefetch falls into L1.
	l1, _ := NewCache(CacheConfig{Name: "L1", Sets: 4, Ways: 2, LineBytes: 64, HitLatency: 3})
	h2 := &Hierarchy{L1: l1, Mem: NewMemory(100), NextLinePrefetch: true}
	h2.Access(0x40, true)
	if !h2.L1.Contains(0x80) {
		t.Error("L1-only prefetch missing")
	}
}

func TestDirtyWritebacks(t *testing.T) {
	c := newTestCache(t, 1, 2)
	c.InsertDirty(0x000)
	c.Insert(0x040)
	// Evicting the dirty line counts a writeback; the clean one does not.
	c.Insert(0x080) // evicts 0x000 (LRU, dirty)
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	c.Insert(0x0c0) // evicts 0x040 (clean)
	if c.Stats.Writebacks != 1 {
		t.Errorf("clean eviction counted as writeback: %d", c.Stats.Writebacks)
	}
	// Flushing a dirty line also writes back.
	c.InsertDirty(0x100)
	c.Flush(0x100)
	if c.Stats.Writebacks != 2 {
		t.Errorf("flush writeback missing: %d", c.Stats.Writebacks)
	}
	// A dirty insert over an existing clean line marks it dirty.
	c.Insert(0x140)
	c.InsertDirty(0x140)
	c.Flush(0x140)
	if c.Stats.Writebacks != 3 {
		t.Errorf("dirtied line writeback missing: %d", c.Stats.Writebacks)
	}
}

func TestMulticoreCoherence(t *testing.T) {
	cores := NewMulticore(2)
	a, b := cores[0], cores[1]
	addr := uint64(0x4000)

	// Both cores read the line into their private L1s.
	a.Access(addr, true)
	b.Access(addr, true)
	if !a.L1.Contains(addr) || !b.L1.Contains(addr) {
		t.Fatal("both L1s should hold the line")
	}

	// A store on core A invalidates core B's copy.
	a.Mem.Write(addr, 7)
	a.InstallDirty(addr)
	if b.L1.Contains(addr) {
		t.Error("peer L1 copy survived a store (coherence broken)")
	}
	if a.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", a.Invalidations)
	}
	// Core B re-reads through the shared L2 and sees the new value.
	_, lvl := b.Access(addr, true)
	if lvl != LevelL2 {
		t.Errorf("core B served from %v, want the shared L2", lvl)
	}
	if b.Mem.Read(addr) != 7 {
		t.Error("shared memory write lost")
	}

	// CLFLUSH on core B evicts everywhere, including core A's L1.
	a.Access(addr, true)
	b.Flush(addr)
	if a.L1.Contains(addr) || a.L2.Contains(addr) {
		t.Error("coherent flush left a stale copy")
	}
}

func TestNewMulticoreShapes(t *testing.T) {
	cores := NewMulticore(3)
	if len(cores) != 3 {
		t.Fatalf("cores = %d", len(cores))
	}
	if cores[0].L2 != cores[1].L2 || cores[1].L2 != cores[2].L2 {
		t.Error("L2 not shared")
	}
	if cores[0].Mem != cores[2].Mem {
		t.Error("memory not shared")
	}
	if cores[0].L1 == cores[1].L1 {
		t.Error("L1s must be private")
	}
	if got := NewMulticore(0); len(got) != 1 {
		t.Error("n<1 should clamp to one core")
	}
}
