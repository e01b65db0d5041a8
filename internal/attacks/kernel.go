package attacks

import (
	"fmt"
	"sync"

	"vpsec/internal/cpu"
	"vpsec/internal/isa"
	"vpsec/internal/obs"
)

// The attack steps are all instances of one uniform access kernel so
// that the attacked load sits at the same virtual PC in every party's
// program — the cross-process index collision the PoCs construct with
// NOP padding (Fig. 3, receiver lines 2-4). Structural choices
// (whether to flush the target, where the dependent load points) are
// expressed as address parameters rather than omitted instructions,
// keeping every kernel's shape, and therefore its PCs, identical.
//
// Kernel shape, per iteration i in [0, iters):
//
//	flush  flushAddr            ; evict the target (or a dummy line)
//	fence
//	t1 := rdtsc
//	v  := load target           ; the attacked load, PC = attackLoadPC
//	d  := depBase + (v & valueMask) << probeShift
//	_  := load d                ; value-dependent dependent load
//	fence
//	t2 := rdtsc
//	results[i] = t2 - t1
//	flush depFlush(d)           ; re-evict the touched dependent line
//	fence
//
// The dependent load both amplifies the timing-window contrast (a
// second serialized miss without a prediction, an overlapped miss with
// one) and performs the transient encode into the probe array for the
// persistent channel, exactly like Fig. 4's `y = arr2[x*512]`.

// attackLoadPC is the instruction index of the attacked load in an
// unskewed kernel. The oracle predictors target it.
const attackLoadPC = 10

// pcSkew is the NOP padding applied to "unmapped" parties so their
// load maps to a different predictor index.
const pcSkew = 3

// kernelParams parameterizes one kernel program.
type kernelParams struct {
	name     string
	target   uint64 // address of the attacked load
	value    uint64 // initial data word at target (0 leaves it unset)
	setValue bool
	iters    int
	flush    bool   // evict target each iteration (else flush a dummy)
	depBase  uint64 // dependent-load region (probeBase for encodes, dummy otherwise)
	flushDep bool   // re-evict the touched dependent line each iteration
	results  uint64 // per-iteration timing array base
	skew     int    // leading NOPs (unmapped-index parties)
}

// buildKernel emits the uniform kernel program.
func buildKernel(p kernelParams) (*isa.Program, error) {
	b := isa.NewBuilder(p.name)
	if p.setValue {
		b.Word(p.target, p.value)
	}
	b.PadTo(p.skew)
	flushAddr := int64(dummyTarget)
	if p.flush {
		flushAddr = int64(p.target)
	}
	depFlushBase := p.depBase
	if !p.flushDep {
		depFlushBase = dummyAddr
	}
	b.MovI(isa.R1, int64(p.target))
	b.MovI(isa.R8, flushAddr)
	b.MovI(isa.R9, int64(p.depBase))
	b.MovI(isa.R10, int64(p.results))
	b.MovI(isa.R13, int64(depFlushBase))
	b.MovI(isa.R3, 0)
	b.MovI(isa.R4, int64(p.iters))
	b.Label("loop") // loop head = skew+7
	b.Flush(isa.R8, 0)
	b.Fence()
	b.Rdtsc(isa.R20)
	b.Load(isa.R2, isa.R1, 0) // attacked load: PC = skew + attackLoadPC
	b.AndI(isa.R5, isa.R2, valueMask)
	b.ShlI(isa.R5, isa.R5, probeShift)
	b.Add(isa.R6, isa.R9, isa.R5)
	b.Load(isa.R7, isa.R6, 0) // dependent load / transient encode
	b.Fence()
	b.Rdtsc(isa.R21)
	b.Sub(isa.R22, isa.R21, isa.R20)
	b.ShlI(isa.R11, isa.R3, 3)
	b.Add(isa.R12, isa.R10, isa.R11)
	b.Store(isa.R12, 0, isa.R22) // results[i] = Δt
	// Re-evict the dependent line actually touched (or a dummy line).
	b.Add(isa.R14, isa.R13, isa.R5)
	b.Flush(isa.R14, 0)
	b.Fence()
	b.AddI(isa.R3, isa.R3, 1)
	b.Blt(isa.R3, isa.R4, "loop")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	wantPC := p.skew + attackLoadPC
	if prog.Code[wantPC].Op != isa.LOAD || prog.Code[wantPC].Dst != isa.R2 {
		return nil, fmt.Errorf("attacks: kernel %q attacked load not at PC %d", p.name, wantPC)
	}
	return prog, nil
}

// kernelKey identifies a memoized kernel build: the full parameter set
// plus which builder produced it.
type kernelKey struct {
	volatile bool
	p        kernelParams
}

// kernelCache memoizes *compiled* kernel images. Builds are
// deterministic in kernelParams and images are immutable once compiled
// (the pipeline and InitProcessImage only read them), so trials —
// including parallel ones on different goroutines — share one build
// AND one validation: installing a cached image per trial is a plain
// data-copy loop, with the per-trial Validate pass and Data map walk
// paid once per distinct kernel instead of once per kernel run.
var kernelCache sync.Map // kernelKey -> *isa.Image

func buildKernelCached(volatile bool, p kernelParams) (*isa.Image, error) {
	key := kernelKey{volatile: volatile, p: p}
	if v, ok := kernelCache.Load(key); ok {
		return v.(*isa.Image), nil
	}
	build := buildKernel
	if volatile {
		build = buildVolatileKernel
	}
	prog, err := build(p)
	if err != nil {
		return nil, err
	}
	img, err := isa.Compile(prog)
	if err != nil {
		return nil, err
	}
	v, _ := kernelCache.LoadOrStore(key, img)
	return v.(*isa.Image), nil
}

// runKernel builds the kernel, runs it in a process at physBase, and
// returns the per-iteration timings plus the run result.
func (e *env) runKernel(pid uint64, p kernelParams, physBase uint64) ([]uint64, cpu.RunResult, error) {
	e.switchTo(pid)
	if e.span.Traced() {
		ks := e.span.Child("kernel", obs.Str("kernel", p.name), obs.Int("iters", p.iters))
		defer ks.End()
	}
	img, err := buildKernelCached(false, p)
	if err != nil {
		return nil, cpu.RunResult{}, err
	}
	proc := e.nextProc()
	e.m.InitProcessImage(proc, pid, img, physBase)
	res, err := e.m.Run(proc)
	if err != nil {
		return nil, cpu.RunResult{}, err
	}
	// The returned slice aliases the env's reusable buffer: it stays
	// valid until the env's next runKernel call, and every caller reads
	// it before starting another kernel.
	if cap(e.times) < p.iters {
		e.times = make([]uint64, p.iters)
	}
	times := e.times[:p.iters]
	for i := range times {
		times[i] = e.m.Hier.Mem.Peek(physBase + p.results + uint64(8*i))
	}
	return times, res, nil
}

// writeWord writes a data word into a process's physical memory; the
// harness uses it to model the victim's own secret-dependent data flow
// between steps (e.g. Train+Hit's secret access, Spill Over's D”).
func (e *env) writeWord(physBase, vaddr, value uint64) {
	e.m.Hier.Mem.Write(physBase+vaddr, value)
	// The store would come from the victim's own pipeline; make sure a
	// stale cached copy does not mask it.
	e.m.Hier.Flush(physBase + vaddr)
}

// flushProbeRegion evicts every probe/dependent line in a process's
// mapping. Trials call it before the trigger step: it models the other
// memory activity between victim invocations, and removes the residual
// cache state that speculative dependent loads leave during training
// (with the A-type defense every training access predicts, so the
// training loop transiently touches neighboring probe lines).
func (e *env) flushProbeRegion(physBase uint64) {
	for v := uint64(0); v <= valueMask; v++ {
		e.m.Hier.Flush(physBase + probeBase + v<<probeShift)
	}
}

// probeCache memoizes the per-line reload-probe images (immutable
// once compiled, like the kernel cache).
var probeCache sync.Map // uint64 probe address -> *isa.Image

// buildProbeCached builds (or fetches) the compiled single-load reload
// probe for one probe-line address.
func buildProbeCached(addr uint64) (*isa.Image, error) {
	if v, ok := probeCache.Load(addr); ok {
		return v.(*isa.Image), nil
	}
	b := isa.NewBuilder("probe")
	b.MovI(isa.R1, int64(addr))
	b.Rdtsc(isa.R20)
	b.Load(isa.R2, isa.R1, 0)
	b.Fence()
	b.Rdtsc(isa.R21)
	b.Sub(isa.R22, isa.R21, isa.R20)
	b.Halt()
	built, err := b.Build()
	if err != nil {
		return nil, err
	}
	compiled, err := isa.Compile(built)
	if err != nil {
		return nil, err
	}
	v, _ := probeCache.LoadOrStore(addr, compiled)
	return v.(*isa.Image), nil
}

// probeLatency runs a minimal reload probe in a process at physBase:
// it times a single load of probe line `line` and returns the latency
// (the decode step of the persistent channel, Fig. 4 lines 18-24).
func (e *env) probeLatency(pid uint64, physBase uint64, line uint64) (uint64, error) {
	e.switchTo(pid)
	if e.span.Traced() {
		ps := e.span.Child("probe", obs.Int("line", int(line&valueMask)))
		defer ps.End()
	}
	addr := probeBase + (line&valueMask)<<probeShift
	img, err := buildProbeCached(addr)
	if err != nil {
		return 0, err
	}
	proc := e.nextProc()
	e.m.InitProcessImage(proc, pid, img, physBase)
	res, err := e.m.Run(proc)
	if err != nil {
		return 0, err
	}
	return res.Regs[isa.R22], nil
}

// buildVolatileKernel emits the trigger kernel of the volatile
// (port-contention) channel. The prologue and loop head match
// buildKernel exactly, so the attacked load sits at the same
// attackLoadPC as the training kernels; after the load, a
// parity-dependent branch guards a wakeup burst — one 3-cycle multiply
// fanning out to 16 simultaneous dependents — that saturates the issue
// ports only when the *predicted* value is odd. A co-runner (modeled
// by RunResult.ConflictSeries) observes the contention spike during
// the transient window, SMoTherSpectre-style; without a prediction the
// burst cannot fire until the real value returns, far outside the
// sampling window.
func buildVolatileKernel(p kernelParams) (*isa.Program, error) {
	b := isa.NewBuilder(p.name)
	if p.setValue {
		b.Word(p.target, p.value)
	}
	b.PadTo(p.skew)
	flushAddr := int64(dummyTarget)
	if p.flush {
		flushAddr = int64(p.target)
	}
	b.MovI(isa.R1, int64(p.target))
	b.MovI(isa.R8, flushAddr)
	b.MovI(isa.R9, int64(p.depBase)) // unused; preserves the shape
	b.MovI(isa.R10, int64(p.results))
	b.MovI(isa.R13, dummyAddr)
	b.MovI(isa.R3, 0)
	b.MovI(isa.R4, int64(p.iters))
	b.Label("loop")
	b.Flush(isa.R8, 0)
	b.Fence()
	b.Rdtsc(isa.R20)
	b.Load(isa.R2, isa.R1, 0) // attacked load: PC = skew + attackLoadPC
	b.AndI(isa.R5, isa.R2, 1) // secret parity selects the burst
	b.Bne(isa.R5, isa.R0, "burst")
	b.Jmp("join")
	b.Label("burst")
	b.Mul(isa.R24, isa.R5, isa.R4) // 3-cycle producer...
	for i := 0; i < 64; i++ {
		b.Add(isa.R23, isa.R24, isa.R4) // ...waking 64 dependents at once
	}
	b.Label("join")
	b.Fence()
	b.Rdtsc(isa.R21)
	b.Sub(isa.R22, isa.R21, isa.R20)
	b.ShlI(isa.R11, isa.R3, 3)
	b.Add(isa.R12, isa.R10, isa.R11)
	b.Store(isa.R12, 0, isa.R22)
	b.AddI(isa.R3, isa.R3, 1)
	b.Blt(isa.R3, isa.R4, "loop")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	wantPC := p.skew + attackLoadPC
	if prog.Code[wantPC].Op != isa.LOAD || prog.Code[wantPC].Dst != isa.R2 {
		return nil, fmt.Errorf("attacks: volatile kernel %q attacked load not at PC %d", p.name, wantPC)
	}
	return prog, nil
}

// volatileWindow is the co-runner's sampling window in cycles from the
// start of the trigger run: long enough to cover a predicted burst
// (~cycle 15) plus jitter, short enough to exclude the architectural
// burst after the real value returns (~cycle 170+).
const volatileWindow = 100

// runVolatileTrigger runs the volatile trigger kernel and returns the
// windowed contention observation.
func (e *env) runVolatileTrigger(pid uint64, p kernelParams, physBase uint64) (float64, cpu.RunResult, error) {
	e.switchTo(pid)
	if e.span.Traced() {
		ks := e.span.Child("kernel", obs.Str("kernel", p.name), obs.Int("iters", p.iters))
		defer ks.End()
	}
	img, err := buildKernelCached(true, p)
	if err != nil {
		return 0, cpu.RunResult{}, err
	}
	proc := e.nextProc()
	e.m.InitProcessImage(proc, pid, img, physBase)
	res, err := e.m.Run(proc)
	if err != nil {
		return 0, cpu.RunResult{}, err
	}
	var sum float64
	for c, n := range res.ConflictSeries {
		if c >= volatileWindow {
			break
		}
		sum += float64(n)
	}
	return sum, res, nil
}
