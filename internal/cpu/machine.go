package cpu

import (
	"fmt"
	"math/rand"

	"vpsec/internal/isa"
	"vpsec/internal/mem"
	"vpsec/internal/predictor"
	"vpsec/internal/trace"
)

// Process is one executable context: a program, an architectural
// register file, and the physical offset of its private address space.
// The VPS indexes by virtual PC and virtual data address, so two
// processes with equal virtual layouts collide in the predictor (what
// the cross-process attacks exploit) while their cache footprints stay
// disjoint.
type Process struct {
	PID      uint64
	Prog     *isa.Program
	PhysBase uint64
	Regs     [isa.NumRegs]uint64
}

// Machine owns the shared microarchitectural state: the memory
// hierarchy, the value predictor, the global cycle counter (the RDTSC
// time base persists across process runs).
type Machine struct {
	Cfg   Config
	Hier  *mem.Hierarchy
	Pred  predictor.Predictor
	Rng   *rand.Rand
	Noise Noise
	Cycle uint64

	// Shadow is the speculative shadow buffer of the value-recomputation
	// policy; it is non-nil exactly when Cfg.Effects == EffectsRecompute
	// (NewMachine and Reset maintain it) and, like the hierarchy, is
	// shared by SMT threads.
	Shadow *mem.Shadow

	// TagFor maps a process identifier to its predictor isolation-domain
	// tag (predictor.Context.Tag). Nil — the default — leaves every
	// context untagged, reproducing the paper's shared predictor tables.
	// The context-isolation defense installs a non-zero mapping.
	TagFor func(pid uint64) uint64

	// Events, when non-nil, receives the core's simulated-time event
	// stream (internal/trace): each instruction's fetch, issue,
	// writeback, value prediction and verification, squash and commit,
	// and each memory access, in the order the pipeline performs them.
	// Pipeline diagrams and Kanata logs (trace.Recorder), the
	// differential oracle's commit log and vpsim -memtrace all consume
	// it. Under RunSMT both hardware threads report here, told apart by
	// Event.PID. Unhooked, each event site costs one nil check.
	Events func(trace.Event)

	// metrics, when attached (AttachMetrics), streams ROB occupancy and
	// publishes run/predictor/memory counters into a registry.
	// metricsCache survives Reset so a pooled machine re-attaching to
	// the same registry reuses its resolved handles.
	metrics      *machineMetrics
	metricsCache *machineMetrics

	// arena recycles ROB entries across fetches, squashes and runs;
	// pipePool recycles whole pipelines across runs. Both live on the
	// machine (not the pipeline) so SMT threads share one free list and
	// repeated Runs reach a steady state that allocates nothing per
	// instruction.
	arena    entryArena
	pipePool []*pipeline

	// replayEpoch numbers selective-replay closure traversals; entries
	// stamp it to mark closure membership (see replayDependents). It is
	// machine-global because arena entries migrate between SMT threads.
	replayEpoch uint64
}

// getPipeline takes a pooled pipeline (or makes one) and resets it for
// a fresh run of proc.
func (m *Machine) getPipeline(proc *Process) *pipeline {
	var p *pipeline
	if n := len(m.pipePool); n > 0 {
		p = m.pipePool[n-1]
		m.pipePool = m.pipePool[:n-1]
	} else {
		p = new(pipeline)
	}
	p.reset(m, proc)
	return p
}

// putPipeline returns a pipeline to the pool, releasing every entry it
// still owns (in-flight and retired) back to the arena. Each in-flight
// entry's scoreboard slot is vacated first, restoring the pooled
// invariant that every mask is all-zero — which is what lets initSched
// skip re-zeroing on the next run (a clean HALT leaves nothing in
// flight; this loop only does mask work after an error or cycle-limit
// abort).
func (m *Machine) putPipeline(p *pipeline) {
	for p.rob.len() > 0 {
		e := p.rob.popFront()
		p.clearSlot(e.slot)
		m.arena.release(e)
	}
	for _, e := range p.retired {
		m.arena.release(e)
	}
	p.retired = p.retired[:0]
	p.fences = p.fences[:0]
	m.pipePool = append(m.pipePool, p)
}

// NewMachine assembles a machine; nil hier gets the default hierarchy,
// nil pred gets the no-VP baseline, nil rng gets a fixed seed. The
// rest is Reset's, so a reset machine equals a fresh one by
// construction.
func NewMachine(cfg Config, hier *mem.Hierarchy, pred predictor.Predictor, rng *rand.Rand) (*Machine, error) {
	if hier == nil {
		hier = mem.DefaultHierarchy()
	}
	m := &Machine{Hier: hier}
	if err := m.Reset(cfg, pred, rng); err != nil {
		return nil, err
	}
	return m, nil
}

// ensureShadow aligns the shadow buffer with the effects policy: the
// recomputation policy gets an empty buffer (recycling a pooled one so
// repeated Resets allocate nothing), every other policy gets nil.
func (m *Machine) ensureShadow() {
	if m.Cfg.Effects != EffectsRecompute {
		m.Shadow = nil
		return
	}
	if m.Shadow == nil {
		m.Shadow = mem.NewShadow(mem.DefaultShadowEntries, mem.DefaultShadowLatency,
			m.Hier.L1.Config().LineBytes)
		return
	}
	m.Shadow.Reset()
}

// Reset re-arms a machine for an independent run with a new
// configuration, predictor and RNG, keeping its entry arena and
// pipeline pool warm. The hierarchy is left untouched — callers
// recycling a machine across trials reset it separately
// (mem.Hierarchy.Reset). NewMachine builds through Reset, so every
// observable field returns to what NewMachine produces and a run on a
// recycled machine is bit-identical to one on a freshly built machine.
func (m *Machine) Reset(cfg Config, pred predictor.Predictor, rng *rand.Rand) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg.setDefaults()
	if pred == nil {
		pred = predictor.NewNone()
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	m.Cfg = cfg
	m.Pred = pred
	m.Rng = rng
	m.Noise = Noise{}
	m.Cycle = 0
	m.Events = nil
	m.TagFor = nil
	m.metrics = nil
	m.ensureShadow()
	return nil
}

// InitProcessImage installs a precompiled isa.Image into
// caller-provided storage: p is overwritten and the image's data words
// are written to physical memory at physBase + vaddr. The program was
// validated at Compile time and its data section is a dense sorted
// slice, so installation is a plain copy loop with no validation pass
// and no map iteration. The trial driver in internal/attacks leans on
// this to recycle pooled machines and Process structs through hundreds
// of trials of the same compiled kernels.
func (m *Machine) InitProcessImage(p *Process, pid uint64, img *isa.Image, physBase uint64) {
	*p = Process{PID: pid, Prog: img.Prog, PhysBase: physBase}
	for _, w := range img.Data {
		m.Hier.Mem.Write(physBase+w.Addr, w.Value)
	}
}

// NewProcess registers a process: the program is compiled (validated)
// and its initial data words are written to physical memory at
// physBase + vaddr.
func (m *Machine) NewProcess(pid uint64, prog *isa.Program, physBase uint64) (*Process, error) {
	img, err := isa.Compile(prog)
	if err != nil {
		return nil, err
	}
	p := new(Process)
	m.InitProcessImage(p, pid, img, physBase)
	return p, nil
}

// RunResult summarizes one program execution.
type RunResult struct {
	Cycles  uint64 // wall cycles consumed by this run
	Retired uint64 // committed instructions

	Fetched  uint64 // instructions renamed into the ROB (wrong path included)
	Issued   uint64 // instructions that began execution
	Squashed uint64 // ROB entries dropped by full squashes
	Replayed uint64 // entries re-executed by selective replay

	Predictions   uint64 // value predictions made
	VerifyCorrect uint64 // verified correct
	VerifyWrong   uint64 // verified wrong (value squashes)
	NoPredictions uint64 // VPS consulted, below confidence
	BranchSquash  uint64 // taken-branch refetches
	LoadMisses    uint64 // loads served beyond L1
	Forwards      uint64 // store-to-load forwards
	PortConflicts uint64 // ready instructions that could not issue
	//                      because the issue ports were saturated —
	//                      the contention a co-runner observes (the
	//                      volatile channel of Sec. V)

	// ConflictSeries is the per-cycle port-conflict count, recorded
	// only when Config.RecordConflicts is set; index = cycle within
	// the run.
	ConflictSeries []uint32

	Regs [isa.NumRegs]uint64 // final architectural registers
}

// IPC returns retired instructions per cycle.
func (r RunResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Retired) / float64(r.Cycles)
}

// Run executes proc's program on the machine until HALT commits,
// mutating shared state (caches, predictor, cycle counter) and the
// process's architectural registers.
func (m *Machine) Run(proc *Process) (RunResult, error) {
	st := m.getPipeline(proc)
	for {
		done, err := st.step()
		if err != nil {
			res := st.res
			m.putPipeline(st)
			return res, err
		}
		if done {
			proc.Regs = st.regs
			st.res.Regs = st.regs
			m.publishRun(&st.res)
			res := st.res
			m.putPipeline(st)
			return res, nil
		}
		if st.res.Cycles >= m.Cfg.MaxCycles {
			res := st.res
			m.putPipeline(st)
			return res, fmt.Errorf("cpu: %q exceeded %d cycles", proc.Prog.Name, m.Cfg.MaxCycles)
		}
	}
}
