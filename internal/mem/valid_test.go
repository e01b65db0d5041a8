package mem

import (
	"math"
	"math/rand"
	"testing"
)

// validWays counts the ways of set s stamped with the current epoch.
func validWays(c *Cache, s int) int {
	n := 0
	for _, l := range c.set(s) {
		if l.epoch == c.epoch {
			n++
		}
	}
	return n
}

// recountValid checks that every set's valid count equals the number of
// its ways stamped with the current epoch — the invariant behind the
// empty-set early exits of Lookup, Contains and Flush — and that no set
// holds a line twice.
func recountValid(t *testing.T, c *Cache, op string) {
	t.Helper()
	for s := range c.valid {
		if n := validWays(c, s); int(c.valid[s]) != n {
			t.Fatalf("after %s: set %d counts %d valid lines, recount %d", op, s, c.valid[s], n)
		}
		ways := c.set(s)
		for i := range ways {
			for j := i + 1; j < len(ways); j++ {
				if ways[i].epoch == c.epoch && ways[j].epoch == c.epoch && ways[i].tag == ways[j].tag {
					t.Fatalf("after %s: set %d holds tag %#x in ways %d and %d", op, s, ways[i].tag, i, j)
				}
			}
		}
	}
}

// scanContains is Contains without the empty-set shortcut.
func scanContains(c *Cache, addr uint64) bool {
	s, tag := c.index(addr)
	for _, l := range c.set(s) {
		if l.epoch == c.epoch && l.tag == tag {
			return true
		}
	}
	return false
}

// TestCacheValidCounts drives an LRU cache through a random operation
// sequence. After every operation its per-set valid counts must match a
// recount of its ways, and the answers of Lookup, Contains and Flush,
// and whether an insert evicts, must match a full scan. The epoch starts near its 32-bit wrap, so
// InvalidateAll's physical clear runs too.
func TestCacheValidCounts(t *testing.T) {
	// LRU, the replacement every cache runs, names the one subtest.
	t.Run("lru", func(t *testing.T) {
		cfg := CacheConfig{Name: "t", Sets: 8, Ways: 4, LineBytes: 64, HitLatency: 3}
		c, err := NewCache(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.epoch = math.MaxUint32 - 2
		rng := rand.New(rand.NewSource(1))
		// 96 lines over 8 sets: up to 12 tags contend for 4 ways.
		addr := func() uint64 { return uint64(rng.Intn(96*64)) + 0x10000 }
		var evictions, flushes uint64
		wrapped := false
		for i := 0; i < 20000; i++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 45:
				// An insert evicts exactly when the line is absent
				// and its set full, as a scan of the ways decides.
				op = "Insert"
				ins := c.Insert
				if r >= 35 {
					op, ins = "InsertDirty", c.InsertDirty
				}
				x := addr()
				s, _ := c.index(x)
				want := !scanContains(c, x) && validWays(c, s) == cfg.Ways
				if _, ev := ins(x); ev != want {
					t.Fatalf("op %d: %s(%#x) evicted %v, a scan says %v", i, op, x, ev, want)
				}
			case r < 65:
				op = "Lookup"
				x := addr()
				want := scanContains(c, x)
				if c.Lookup(x) != want {
					t.Fatalf("op %d: Lookup(%#x) disagrees with a scan (%v)", i, x, want)
				}
			case r < 75:
				op = "Contains"
				x := addr()
				if c.Contains(x) != scanContains(c, x) {
					t.Fatalf("op %d: Contains(%#x) disagrees with a scan", i, x)
				}
			case r < 97:
				op = "Flush"
				x := addr()
				want := scanContains(c, x)
				if c.Flush(x) != want {
					t.Fatalf("op %d: Flush(%#x) disagrees with a scan (%v)", i, x, want)
				}
			case r < 99:
				op = "InvalidateAll"
				wrapped = wrapped || c.epoch == math.MaxUint32
				c.InvalidateAll()
			default:
				op = "Reset"
				wrapped = wrapped || c.epoch == math.MaxUint32
				evictions += c.Stats.Evictions
				flushes += c.Stats.Flushes
				c.Reset()
			}
			recountValid(t, c, op)
		}
		if evictions == 0 || flushes == 0 || !wrapped {
			t.Errorf("sequence too tame: %d evictions, %d flushes, epoch wrapped %v", evictions, flushes, wrapped)
		}
	})
}
