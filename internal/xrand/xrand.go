// Package xrand provides a math/rand-compatible random source whose
// re-seeding is cheap. Source produces the exact bit stream of Go's
// default rand.NewSource — the same Mitchell/Reeds additive lagged
// Fibonacci generator, seeded by the same multiplicative LCG — but it
// memoizes the post-seed generator state per seed value, so re-seeding
// to a seed it has seen before is one ~5 KiB copy instead of the
// ~1900-step seeding recurrence.
//
// That matters because the experiment harness derives every trial's
// RNG seed purely from (base seed, trial index) — the determinism
// contract of DESIGN.md §8 — and every trial re-seeds a pooled
// generator, hundreds of times per case over a small recurring seed
// set. Before this cache, rand.(*Rand).Seed was the single largest line
// item of the Fig. 5 Train+Test sweep (~28% of wall clock).
//
// Equivalence with math/rand is pinned by TestStreamMatchesMathRand;
// the vendored rngCooked table (cooked.go) is the piece that makes the
// streams bit-identical.
package xrand

// Generator constants, identical to math/rand's rngSource.
const (
	rngLen   = 607
	rngTap   = 273
	rngMax   = 1 << 63
	rngMask  = rngMax - 1
	int32max = (1 << 31) - 1
)

// maxCachedSeeds bounds the per-Source seed-state cache. Each entry is
// one 607-word generator state (~4.9 KiB); a paper-default case uses
// 2×Runs = 200 distinct seeds, so 1024 covers every realistic sweep
// while capping a Source at ~5 MiB.
const maxCachedSeeds = 1024

// Source is a rand.Source64 implementing the Mitchell/Reeds generator
// with a seed-state memo. It is not safe for concurrent use (neither
// is rand.Rand); pooled trial states own one Source each.
type Source struct {
	tap  int
	feed int
	vec  [rngLen]int64

	// states memoizes the post-Seed vec per seed. tap and feed are the
	// same fixed values after every Seed, so vec alone reconstructs the
	// state.
	states map[int64]*[rngLen]int64
}

// NewSource returns a Source seeded with seed, stream-identical to
// rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// seedrand advances the seeding LCG: x[n+1] = 48271 * x[n] mod (2^31-1).
func seedrand(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - r*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// Seed initializes the generator to the deterministic state
// rand.NewSource(seed) would produce, restoring it from the memo when
// this Source has been seeded with the same value before.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	if st, ok := s.states[seed]; ok {
		s.vec = *st
		return
	}

	x := seed % int32max
	if x < 0 {
		x += int32max
	}
	if x == 0 {
		x = 89482311
	}
	v := int32(x)
	for i := -20; i < rngLen; i++ {
		v = seedrand(v)
		if i >= 0 {
			u := int64(v) << 40
			v = seedrand(v)
			u ^= int64(v) << 20
			v = seedrand(v)
			u ^= int64(v)
			u ^= rngCooked[i]
			s.vec[i] = u
		}
	}

	if s.states == nil {
		s.states = make(map[int64]*[rngLen]int64)
	}
	if len(s.states) < maxCachedSeeds {
		st := s.vec
		s.states[seed] = &st
	}
}

// Int63 returns a non-negative 63-bit integer, identical to
// math/rand's source.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 advances the lagged Fibonacci register and returns the next
// 64-bit value, identical to math/rand's source.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
