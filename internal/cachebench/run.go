// Trial execution: a lowered benchmark program runs on the in-order
// reference interpreter (isa.Interp) against an internal/mem hierarchy.
// The interpreter charges one cycle per instruction; its retire hook
// adds the hierarchy's access latencies and the standard jitter model
// on loads and flushes. The benchmark programs are straight-line
// loads/flushes around rdtsc pairs; the full out-of-order machine in
// internal/cpu would add predictor and pipeline effects that are the
// *subject* of the source paper but confounders here — the benchmark
// paper's three-step model is about cache state alone.

package cachebench

import (
	"math/rand"
	"sync"

	"vpsec/internal/cpu"
	"vpsec/internal/isa"
	"vpsec/internal/mem"
	"vpsec/internal/xrand"
)

// Flush latency model: clflush costs FlushLatency cycles, plus
// FlushCachedExtra when the line is present in some level (evicting
// costs more than a no-op flush — the observable Flush+Flush exploits).
const (
	// FlushLatency is the base clflush cost in cycles.
	FlushLatency uint64 = 30
	// FlushCachedExtra is the additional cost when the flushed line was
	// cached in L1 or L2.
	FlushCachedExtra uint64 = 12
)

// DefaultNoise is the benchmark's jitter model — identical to the
// attack harness default (attacks.Options.WithDefaults): up to 12
// extra cycles on DRAM-served accesses, up to 2 on hits and flushes.
func DefaultNoise() cpu.Noise { return cpu.Noise{MemJitter: 12, HitJitter: 2} }

// newHierarchy builds the benchmark hierarchy: the evaluation's L1
// (64x8x64B, 3 cycles) and L2 (512x8x64B, 12 cycles) over 150-cycle
// DRAM, with no TLB and no prefetcher — timing differences are pure
// cache effects (see Limitations).
func newHierarchy() *mem.Hierarchy {
	l1, err := mem.NewCache(mem.CacheConfig{Name: "L1D", Sets: 64, Ways: 8, LineBytes: 64, HitLatency: 3})
	if err != nil {
		panic(err)
	}
	l2, err := mem.NewCache(mem.CacheConfig{Name: "L2", Sets: 512, Ways: 8, LineBytes: 64, HitLatency: 12})
	if err != nil {
		panic(err)
	}
	return &mem.Hierarchy{L1: l1, L2: l2, Mem: mem.NewMemory(150)}
}

// trialState is one pooled trial's machinery: the hierarchy, the
// jitter generator and the interpreter whose retire hook charges them.
// A family run executes hundreds of thousands of short programs, and
// fresh line arrays and generators would dominate per-trial allocation
// otherwise. The generator is an xrand source, as in the attack
// harness: math/rand's stream with O(1) re-seeding, because a trial
// draws only a few jitter values.
type trialState struct {
	h     *mem.Hierarchy
	rng   *rand.Rand
	noise cpu.Noise
	it    isa.Interp
}

var trialPool = sync.Pool{New: func() any {
	s := &trialState{h: newHierarchy(), rng: rand.New(xrand.NewSource(0))}
	s.it.OnRetire = s.retire
	return s
}}

// Trial executes one arm of the pattern's program pair under the given
// seed and noise model, returning the cycle count the program measured
// for step 3. Every trial starts from a cold hierarchy; determinism is
// the trial seed alone.
func (p Pattern) Trial(mapped bool, seed int64, noise cpu.Noise) (uint64, error) {
	prog, err := p.Compile(mapped)
	if err != nil {
		return 0, err
	}
	s := trialPool.Get().(*trialState)
	defer func() {
		s.h.Reset()
		trialPool.Put(s)
	}()
	// Rand.Seed re-arms the pooled xrand source to exactly the stream
	// a fresh rand.New(rand.NewSource(seed)) would produce.
	s.rng.Seed(seed)
	s.noise = noise
	s.it.Reset(prog)
	if _, err := s.it.Run(prog); err != nil {
		return 0, err
	}
	return s.it.Mem[ResultAddr], nil
}

// retire charges a retired load or flush its timing: the hierarchy's
// access latency plus jitter on loads, FlushLatency (plus
// FlushCachedExtra when the line was cached) plus jitter on flushes.
// Stores write the interpreter's memory without touching the caches
// (the benchmark's result store must not perturb the state under
// measurement).
func (s *trialState) retire(c isa.Commit) error {
	switch c.Op {
	case isa.LOAD:
		lat, served := s.h.Access(c.Addr, true)
		s.it.Cycle += lat + jitter(s.rng, s.noise, served == mem.LevelMem)
	case isa.FLUSH:
		lat := FlushLatency
		if s.h.Cached(c.Addr) {
			lat += FlushCachedExtra
		}
		s.h.Flush(c.Addr)
		s.it.Cycle += lat + jitter(s.rng, s.noise, false)
	}
	return nil
}

// jitter draws the access-latency noise, mirroring the pipeline's model
// (cpu/pipeline.go): uniform [0, MemJitter] on DRAM-served accesses,
// uniform [0, HitJitter] otherwise.
func jitter(rng *rand.Rand, noise cpu.Noise, dram bool) uint64 {
	if dram && noise.MemJitter > 0 {
		return uint64(rng.Int63n(int64(noise.MemJitter) + 1))
	}
	if !dram && noise.HitJitter > 0 {
		return uint64(rng.Int63n(int64(noise.HitJitter) + 1))
	}
	return 0
}
