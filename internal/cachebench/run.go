// Trial execution. Each arm's lowered program runs once on the in-order
// reference interpreter (isa.Interp) against a cold internal/mem
// hierarchy, without jitter. The interpreter charges one cycle per
// instruction, and its retire hook adds the hierarchy's access
// latencies on loads and flushes. That one run yields the arm's
// schedule: the jitter-free step-3 delta plus, for every load and
// flush, whether DRAM served it and whether it was timed. A trial then
// replays only the schedule's jitter draws under its own seed (see
// schedule for why that equals interpreting the program again). The
// benchmark programs are straight-line loads/flushes around rdtsc
// pairs; the full out-of-order machine in internal/cpu would add
// predictor and pipeline effects that are the *subject* of the source
// paper but confounders here — the benchmark paper's three-step model
// is about cache state alone.

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

// DefaultNoise is the benchmark's jitter model: the core's default,
// cpu.DefaultNoise, whose hit jitter the benchmark also draws on
// flushes.
func DefaultNoise() cpu.Noise { return cpu.DefaultNoise() }

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

// schedule is one arm's trial with the jitter taken out: base is the
// step-3 delta the arm's program stores at ResultAddr when it runs on
// isa.Interp against a cold newHierarchy() with no jitter, and
// accesses lists every load and flush of that run in program order.
//
// Precondition: every trial of the arm makes the same accesses with the
// same hit/miss outcomes, and differs from this run only in its jitter
// draws. That holds because the program is straight-line and addresses
// memory only through movi/addi constants (Source), the caches are
// timing-only LRU with no prefetcher, every trial starts from a cold
// hierarchy (Limitations), and jitter only adds cycles — it never feeds
// an address, a branch or the cache state. A trial's step-3 delta is
// then base plus the jitter drawn for the timed accesses; the untimed
// ones still draw, in order, so the generator's stream lines up with a
// per-trial interpreter run. TestTrialMatchesInterp checks that
// equality for every arm of the family.
type schedule struct {
	base     uint64
	accesses []access
}

// access is one load or flush of a schedule.
type access struct {
	dram  bool // served from DRAM, so it draws MemJitter; else HitJitter
	timed bool // retired between the two rdtscs, so its jitter is measured
}

// hierPool recycles the hierarchies newSchedule runs arms on. A
// hierarchy's line arrays take about 111 KB, and an arm makes at most
// 17 loads and flushes on it, so building one per arm was most of what
// a cold family pass allocated. Hierarchy.Reset makes a recycled
// hierarchy behave bit-identically to a new one.
var hierPool = sync.Pool{New: func() any { return newHierarchy() }}

// newSchedule runs prog once, without jitter, on a cold hierarchy and
// records its schedule. Stores write the interpreter's memory without
// touching the caches (the benchmark's result store must not perturb
// the state under measurement).
func newSchedule(prog *isa.Program) (*schedule, error) {
	h := hierPool.Get().(*mem.Hierarchy)
	h.Reset()
	defer hierPool.Put(h)
	s := &schedule{}
	var it isa.Interp
	rdtscs := 0
	it.OnRetire = func(c isa.Commit) error {
		var dram bool
		switch c.Op {
		case isa.RDTSC:
			rdtscs++
			return nil
		case isa.LOAD:
			lat, served := h.Access(c.Addr, true)
			it.Cycle += lat
			dram = served == mem.LevelMem
		case isa.FLUSH:
			lat := FlushLatency
			if h.Cached(c.Addr) {
				lat += FlushCachedExtra
			}
			h.Flush(c.Addr)
			it.Cycle += lat
		default:
			return nil
		}
		s.accesses = append(s.accesses, access{dram: dram, timed: rdtscs == 1})
		return nil
	}
	it.Reset(prog)
	if _, err := it.Run(prog); err != nil {
		return nil, err
	}
	s.base = it.Mem[ResultAddr]
	return s, nil
}

// rngPool recycles the trials' jitter generators. Each is an xrand
// source, as in the attack harness: math/rand's stream with O(1)
// re-seeding, because a trial draws only a few jitter values.
var rngPool = sync.Pool{New: func() any { return rand.New(xrand.NewSource(0)) }}

// trial replays the schedule under one seed and noise model, returning
// the step-3 cycle count.
func (s *schedule) trial(seed int64, noise cpu.Noise) uint64 {
	rng := rngPool.Get().(*rand.Rand)
	// Rand.Seed re-arms the pooled xrand source to exactly the stream
	// a fresh rand.New(rand.NewSource(seed)) would produce.
	rng.Seed(seed)
	c := s.base
	for _, a := range s.accesses {
		if j := jitter(rng, noise, a.dram); a.timed {
			c += j
		}
	}
	rngPool.Put(rng)
	return c
}

// Trial executes one arm of the pattern's program pair under the given
// seed and noise model, returning the cycle count the program measured
// for step 3. Every trial starts from a cold hierarchy; determinism is
// the trial seed alone. It replays the arm's memoized schedule, which
// gives the same count as running the program (see schedule).
func (p Pattern) Trial(mapped bool, seed int64, noise cpu.Noise) (uint64, error) {
	e, err := p.arm(mapped)
	if err != nil {
		return 0, err
	}
	return e.sched.trial(seed, noise), nil
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
