// Package mem models the simulator's memory system: set-associative
// caches with LRU replacement and CLFLUSH support, a TLB, and a
// fixed-latency DRAM, composed into a two-level Hierarchy. It plays
// the role of gem5's Ruby cache system in the paper's experimental
// setup: the attacks only need hit-vs-miss timing contrast, a flush
// primitive, and the ability of speculative loads to install lines.
//
// The caches are timing-only: data values live in Memory, and cache
// state determines access latency. This matches how the attacks use
// the hierarchy (they never depend on incoherent cached data).
package mem

import (
	"fmt"
	"math/bits"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string
	Sets       int    // number of sets (power of two)
	Ways       int    // associativity
	LineBytes  uint64 // line size in bytes (power of two)
	HitLatency uint64 // cycles for a hit at this level
}

// Validate checks structural sanity.
func (c CacheConfig) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("mem: %s: sets %d not a positive power of two", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("mem: %s: ways %d invalid", c.Name, c.Ways)
	}
	if c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: %s: line size %d not a positive power of two", c.Name, c.LineBytes)
	}
	return nil
}

// CacheStats counts cache events. Field names follow the metrics
// registry scope convention (mem.<level>.hits, mem.<level>.misses, …)
// so the same vocabulary appears in code, JSON dumps, and Prometheus
// exports.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Flushes    uint64
	Writebacks uint64 // dirty lines written back on eviction or flush
}

// Reset zeroes all counters (e.g. between experiment phases).
func (s *CacheStats) Reset() { *s = CacheStats{} }

// Accesses returns the total number of lookups counted.
func (s CacheStats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRate returns Hits / (Hits + Misses), or 0 with no accesses.
func (s CacheStats) HitRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Hits) / float64(a)
	}
	return 0
}

type cacheLine struct {
	// epoch stamps the invalidation generation the line was filled in:
	// the line is valid iff epoch == Cache.epoch. Bulk invalidation is
	// then one counter bump instead of a memclr of the whole line array
	// — the simulator resets its caches between every experiment trial,
	// and that clear used to be the dominant per-trial setup cost.
	epoch uint32
	dirty bool
	tag   uint64
	lru   uint64 // last-touch tick; larger = more recent
}

// Cache is one set-associative, timing-only cache level with LRU
// replacement. All sets live in one flat line array (set s occupies
// lines[s*Ways : (s+1)*Ways]), so the lines are a single allocation
// rather than one slice per set, which used to dominate the allocation
// profile of building a hierarchy.
type Cache struct {
	cfg   CacheConfig
	lines []cacheLine
	epoch uint32 // current validity generation; never 0 (0 = always invalid)
	tick  uint64
	Stats CacheStats

	// valid counts each set's valid lines (those stamped with the
	// current epoch), so Lookup, Contains and Flush answer an empty set
	// without scanning its ways. An attack trial starts cold and
	// touches a few dozen lines: over the 68 registry-sweep specs, 72%
	// of Lookups and 83% of Flushes land on an empty set.
	valid []uint32

	// Sets and LineBytes are validated powers of two, so the per-access
	// set/tag split is shift-and-mask instead of two hardware divides —
	// index() sits on the critical path of every simulated memory access.
	lineShift uint
	setShift  uint
	setMask   uint64
}

// NewCache builds a cache from cfg.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, lines: make([]cacheLine, cfg.Sets*cfg.Ways), epoch: 1,
		valid:     make([]uint32, cfg.Sets),
		lineShift: uint(bits.TrailingZeros64(cfg.LineBytes)),
		setShift:  uint(bits.TrailingZeros(uint(cfg.Sets))),
		setMask:   uint64(cfg.Sets - 1),
	}
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineShift
	return int(line & c.setMask), line >> c.setShift
}

// set returns the ways of one set as a subslice of the flat array.
func (c *Cache) set(s int) []cacheLine {
	return c.lines[s*c.cfg.Ways : (s+1)*c.cfg.Ways]
}

// Lookup probes the cache. On a hit it refreshes LRU state and returns
// true; on a miss it returns false without modifying the set.
func (c *Cache) Lookup(addr uint64) bool {
	s, tag := c.index(addr)
	c.tick++
	if c.valid[s] == 0 {
		c.Stats.Misses++
		return false
	}
	ways := c.set(s)
	for i := range ways {
		l := &ways[i]
		if l.epoch == c.epoch && l.tag == tag {
			l.lru = c.tick
			c.Stats.Hits++
			return true
		}
	}
	c.Stats.Misses++
	return false
}

// Contains reports presence without touching LRU or statistics (for
// tests and introspection).
func (c *Cache) Contains(addr uint64) bool {
	s, tag := c.index(addr)
	if c.valid[s] == 0 {
		return false
	}
	ways := c.set(s)
	for i := range ways {
		l := &ways[i]
		if l.epoch == c.epoch && l.tag == tag {
			return true
		}
	}
	return false
}

// Insert fills the line containing addr, evicting a victim if the set
// is full. It returns the evicted line's base address and whether an
// eviction happened.
func (c *Cache) Insert(addr uint64) (evicted uint64, wasEvicted bool) {
	return c.insert(addr, false)
}

// InsertDirty fills the line and marks it modified (a store hit or a
// write-allocate): its eventual eviction counts as a writeback.
func (c *Cache) InsertDirty(addr uint64) (evicted uint64, wasEvicted bool) {
	return c.insert(addr, true)
}

func (c *Cache) insert(addr uint64, dirty bool) (evicted uint64, wasEvicted bool) {
	s, tag := c.index(addr)
	ways := c.set(s)
	c.tick++
	n := int(c.valid[s])
	// Already present: refresh.
	if n > 0 {
		for i := range ways {
			l := &ways[i]
			if l.epoch == c.epoch && l.tag == tag {
				l.lru = c.tick
				l.dirty = l.dirty || dirty
				return 0, false
			}
		}
	}
	// A free way exists exactly when the set is not full.
	victim := -1
	if n < len(ways) {
		for i := range ways {
			if ways[i].epoch != c.epoch {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		// The least recently touched line: the smallest tick.
		for i := range ways {
			if victim < 0 || ways[i].lru < ways[victim].lru {
				victim = i
			}
		}
	}
	v := &ways[victim]
	if v.epoch == c.epoch {
		c.Stats.Evictions++
		if v.dirty {
			c.Stats.Writebacks++
		}
		evicted = (v.tag<<c.setShift | uint64(s)) << c.lineShift
		wasEvicted = true
	} else {
		c.valid[s]++
	}
	*v = cacheLine{epoch: c.epoch, dirty: dirty, tag: tag, lru: c.tick}
	return evicted, wasEvicted
}

// Flush evicts the line containing addr if present (clflush), and
// reports whether it was present.
func (c *Cache) Flush(addr uint64) bool {
	s, tag := c.index(addr)
	if c.valid[s] == 0 {
		return false
	}
	ways := c.set(s)
	for i := range ways {
		l := &ways[i]
		if l.epoch == c.epoch && l.tag == tag {
			if l.dirty {
				c.Stats.Writebacks++
			}
			l.epoch = 0 // 0 never equals the current epoch
			l.dirty = false
			c.valid[s]--
			c.Stats.Flushes++
			return true
		}
	}
	return false
}

// InvalidateAll empties the cache (e.g. between experiment runs) by
// advancing the validity epoch and zeroing the per-set valid counts —
// no line-array clear. The array is physically cleared only when the
// 32-bit epoch wraps.
func (c *Cache) InvalidateAll() {
	clear(c.valid)
	c.epoch++
	if c.epoch == 0 {
		clear(c.lines)
		c.epoch = 1
	}
}

// Reset restores the cache to its just-built state: all lines invalid,
// the LRU clock and statistics at zero — so a recycled cache behaves
// bit-identically to a new one.
func (c *Cache) Reset() {
	c.InvalidateAll()
	c.tick = 0
	c.Stats.Reset()
}

// LineBase returns the base address of the line containing addr.
func (c *Cache) LineBase(addr uint64) uint64 {
	return addr &^ (c.cfg.LineBytes - 1)
}
