// Package attacks implements the six value-predictor attack categories
// of Table II as executable sender/receiver programs on the simulator,
// plus the measurement harness that reproduces the paper's evaluation:
// timing distributions (Figs. 5 and 8), p-value attack decisions, and
// transmission rates (Table III).
//
// Every trial is data: an entry of one step table (table.go), either a
// headline cell — a category read through one observer — or a Table II
// row, each a list of train, modify and trigger steps that one
// executor runs. Every evaluation entry point (Run, RunVariant,
// RunTrainTestEviction, RunVolatileSMT) looks up its entry and hands it
// to one evaluator, which executes Options.Runs independent
// mapped/unmapped trial pairs, each on a fresh machine seeded from the
// trial index, fanned over internal/runner's worker pool (Options.Jobs;
// default all cores). Results are byte-identical at any worker count —
// the determinism contract in DESIGN.md §8. End-to-end recipes for
// each paper figure live in docs/EXPERIMENTS-GUIDE.md.
package attacks

import (
	"fmt"
	"math/rand"
	"sync"

	"vpsec/internal/core"
	"vpsec/internal/cpu"
	"vpsec/internal/mem"
	"vpsec/internal/metrics"
	"vpsec/internal/obs"
	"vpsec/internal/predictor"
	"vpsec/internal/xrand"
)

// PredictorKind selects the VPS implementation under attack.
type PredictorKind string

// Predictor kinds. OracleLVP/OracleVTAGE restrict predictions to the
// attacked load's PC, as in the paper's experimental setup.
const (
	NoVP        PredictorKind = "none"
	LVP         PredictorKind = "lvp"
	VTAGE       PredictorKind = "vtage"
	Stride      PredictorKind = "stride"
	Stride2D    PredictorKind = "stride-2d"
	FCM         PredictorKind = "fcm"
	OracleLVP   PredictorKind = "oracle-lvp"
	OracleVTAGE PredictorKind = "oracle-vtage"
)

// Options parameterizes one attack evaluation.
type Options struct {
	Predictor  PredictorKind
	Confidence int // the paper's confidence number; 0 means 4
	Channel    core.Channel

	// Defense is the ordered stack of defense mechanisms applied to the
	// trial (see DefenseStack and the mechanism constructors in
	// defense.go); nil or empty is the undefended baseline.
	Defense DefenseStack

	// Runs is the number of independent trials per case (one mapped
	// and one unmapped trial each, every trial on a fresh machine).
	// 0 means 100, the paper's Sec. IV-D sample size.
	Runs int

	// Seed is the base RNG seed. Trial i derives its machine seed as
	// Seed + 4*i + 1 for the unmapped case and Seed + 4*i + 3 for the
	// mapped case — a pure function of (Seed, trial index), which is
	// what lets trials run in parallel without changing any result
	// (see internal/runner and DESIGN.md §8).
	Seed int64

	// Jobs bounds how many trials are simulated concurrently, fanned
	// out by internal/runner. 0 means runtime.NumCPU(); 1 runs the
	// legacy sequential loop. Results — observations, statistics and
	// metrics exports — are byte-identical at every value.
	Jobs int

	UsePID   bool // index the predictor with the pid (Sec. V-B ablation)
	Prefetch bool // enable the next-line prefetcher ablation
	Replay   bool // selective-replay recovery instead of full squash

	// FPC, when > 1, gives the LVP/VTAGE under attack forward-
	// probabilistic confidence counters (increment rate 1/FPC, as in
	// the VTAGE paper). Training then succeeds only stochastically: the
	// paper's minimal confidence-count training usually fails, and a
	// reliable attack needs roughly FPC times more training accesses
	// (pair with TrainIters; see the FPC ablation test).
	FPC int

	// TrainIters overrides the number of accesses in every trial's
	// *training* step, in every family of trials (0 means the confidence
	// number, the paper's minimum). Modify/retrain steps and Spill
	// Over's deliberate confidence-1 count are unaffected.
	TrainIters int

	// ResetModify switches Train+Test and Modify+Test to the paper's
	// 1-access modify variant (Sec. IV-A), on every channel and in their
	// SMT, eviction-set and Table II row forms: instead of retraining the
	// entry with a confidence count of accesses (misprediction in the
	// trigger), a single conflicting access resets the confidence and
	// the trigger sees *no prediction* — the new timing-window contrast.
	ResetModify bool

	// Rate model: one secret bit is transmitted per trial, and the
	// sender/receiver synchronization (the PoCs' sleep()) costs one
	// scheduling epoch. Rate = ClockHz / (trial cycles + SyncEpoch).

	// ClockHz converts simulated cycles to wall-clock time for the
	// transmission-rate model; 0 means 3 GHz.
	ClockHz float64

	// SyncEpoch is the per-trial synchronization cost in cycles added
	// to the rate denominator; 0 means 330,000 (~110 µs at 3 GHz).
	SyncEpoch float64

	// NoSyncCost drops SyncEpoch from the rate denominator, reporting
	// the raw per-trial transmission rate instead.
	NoSyncCost bool

	Noise cpu.Noise // zero value means the default jitter

	// Metrics, when non-nil, receives every trial machine's pipeline,
	// memory and predictor counters plus the per-trial observation
	// histograms and end-of-case decision gauges (see
	// internal/metrics). Excluded from JSON: a registry is shared
	// infrastructure, not a result.
	Metrics *metrics.Registry `json:"-"`

	// Trace, when non-nil, records execution spans for every trial (see
	// internal/obs): the runner's per-item spans plus the trial phases
	// — setup (env construction), one "kernel" span per attack step
	// (train/modify/trigger, named by the kernel), "probe" for the
	// persistent channel's reload probes, and "stats" for metrics
	// publication. Wall-clock observability only; like Metrics it is
	// excluded from JSON and never influences results.
	Trace *obs.Tracer `json:"-"`
}

// Validate reports option errors that defaulting cannot repair.
func (o Options) Validate() error {
	if o.Runs < 0 || o.Confidence < 0 || o.FPC < 0 || o.TrainIters < 0 {
		return fmt.Errorf("attacks: negative runs/confidence/fpc/train-iters in %+v", o)
	}
	if err := o.Defense.Validate(); err != nil {
		return err
	}
	return nil
}

// WithDefaults returns the options with every zero field replaced by
// its documented default — the normalization each Run* entry point
// applies before executing. Renderers use it to label results with the
// effective configuration.
func (o Options) WithDefaults() Options {
	o.setDefaults()
	return o
}

func (o *Options) setDefaults() {
	if o.Predictor == "" {
		o.Predictor = LVP
	}
	if o.Confidence == 0 {
		o.Confidence = 4
	}
	if o.Runs == 0 {
		o.Runs = 100
	}
	if o.ClockHz == 0 {
		o.ClockHz = 3e9
	}
	if o.SyncEpoch == 0 {
		o.SyncEpoch = 330_000
	}
	if o.Noise == (cpu.Noise{}) {
		o.Noise = cpu.DefaultNoise()
	}
}

// Virtual address layout shared by the attack programs. The sender and
// receiver use the same virtual layout (the VPS indexes virtually), but
// run at different physical offsets, so cache state is disjoint unless
// a shared mapping is modeled explicitly.
const (
	knownAddr  = 0x1000  // receiver-known data (arr3 / known_bit)
	secretAddr = 0x2000  // sender secret-related data (arr1 / secret)
	dummyAddr  = 0x7000  // flush sink when a step must not evict anything
	probeBase  = 0x40000 // dependent / probe array (Fig. 4's arr2), 64 lines
	resultsA   = 0x20000 // sender per-iteration timings
	resultsB   = 0x28000 // receiver per-iteration timings
	senderPhys = 0
	recvPhys   = 1 << 30
	valueMask  = 0x3f // probe index bits taken from a loaded value
	probeShift = 6    // 64-byte line per value step
)

// Values used by the PoCs; all < 64 so they map to distinct probe
// lines under valueMask/probeShift. The *distances* between candidate
// secret values determine the R-type window needed to defend: a window
// of size S hides value differences up to (S-1)/2. The pointer-like
// values of Figs. 3/6 are adjacent (Δ=1 ⇒ minimal secure window 3,
// Sec. VI-B), while Fig. 4's secret flag is 4 apart from the known bit
// (Δ=4 ⇒ minimal secure window 9).
const (
	knownValue   = 0x21 // receiver's trained value (arr3 contents)
	senderValue  = 0x22 // sender's secret-related value (arr1 contents)
	secretValue2 = 0x23 // second secret datum (D'')
	secretAltBit = 4    // Test+Hit's alternative secret value (vs known 0)
)

// env is one trial's machine: fresh caches, predictor and RNG, so the
// paper's 100 runs are independent samples. The freshness is also what
// makes trials embarrassingly parallel — internal/runner simulates
// Options.Jobs of these machines concurrently (default
// runtime.NumCPU()), and no state crosses from one env to another.
type env struct {
	m       *cpu.Machine
	opt     *Options
	conf    int
	train   int    // accesses per training step (>= conf; see Options.TrainIters)
	lastPID uint64 // previously scheduled pid (context-switch mechanisms)

	// span is the trial span the runner put in the item context (zero
	// when untraced); the kernel/probe/stats phase spans nest under it.
	span obs.Span

	// ts points back at the pooled trial state this env lives in;
	// release hands it back. nil for envs that were never pooled.
	ts *trialState
	// times is runKernel's reusable result buffer: each call overwrites
	// it, and every caller consumes the returned slice before the env
	// runs another kernel.
	times []uint64
	// procs recycles Process structs round-robin across the env's
	// kernel runs; at most two (the SMT pair) are ever live at once.
	procs [4]cpu.Process
	procN uint8
}

// switchTo models the OS scheduler handing the core to pid: crossing a
// process boundary runs every context-hook mechanism in the defense
// stack (flush-on-switch clears the VPS here).
func (e *env) switchTo(pid uint64) {
	if e.lastPID != 0 && e.lastPID != pid {
		for _, mech := range e.opt.Defense {
			if cs, ok := mech.(ContextSwitcher); ok {
				cs.OnContextSwitch(e.m, e.lastPID, pid)
			}
		}
	}
	e.lastPID = pid
}

// load time-slices one program onto the core: it hands the core to pid
// (switchTo), opens the step's trace span, and installs the compiled
// program p describes at physBase. Every program a trial runs in turn
// — the uniform, volatile and eviction kernels, the reload probe and
// the SMT trigger — comes through here, so no family of trials can
// skip a context hook. The caller runs the process and ends the span.
func (e *env) load(pid uint64, p kernelParams, physBase uint64) (*cpu.Process, obs.Span, error) {
	e.switchTo(pid)
	var span obs.Span
	if e.span.Traced() {
		if p.prog == reloadProbe {
			span = e.span.Child("probe", obs.Int("line", int((p.target-probeBase)>>probeShift)))
		} else {
			span = e.span.Child("kernel", obs.Str("kernel", p.role.String()), obs.Int("iters", p.iters))
		}
	}
	proc, err := e.install(pid, p, physBase)
	if err != nil {
		span.End()
		return nil, obs.Span{}, err
	}
	return proc, span, nil
}

// install puts the compiled program p describes into the env's next
// recycled Process slot at physBase. It switches no context: load does
// that for programs that take the core, and the SMT sampler, which
// runs beside the trigger on the sibling thread, is installed directly.
func (e *env) install(pid uint64, p kernelParams, physBase uint64) (*cpu.Process, error) {
	img, err := compiled(p)
	if err != nil {
		return nil, err
	}
	proc := &e.procs[e.procN&3]
	e.procN++
	e.m.InitProcessImage(proc, pid, img, physBase)
	return proc, nil
}

// run loads the program p describes for pid and runs it to completion.
func (e *env) run(pid uint64, p kernelParams, physBase uint64) (cpu.RunResult, error) {
	proc, span, err := e.load(pid, p, physBase)
	if err != nil {
		return cpu.RunResult{}, err
	}
	defer span.End()
	return e.m.Run(proc)
}

// trialState is one pooled bundle of everything a trial env reuses:
// the machine (hierarchy, entry arena, pipeline pool), its RNG, a
// recyclable LVP, the env itself and its Options copy. A fresh trial
// needs fresh *state*, not fresh allocations — cpu.Machine.Reset,
// mem.Hierarchy.Reset and predictor reconfiguration restore the as-new
// state bit-identically, so the paper's hundreds of per-case trials
// stop rebuilding caches, page tables and predictor tables from
// scratch.
type trialState struct {
	m   *cpu.Machine
	rng *rand.Rand
	lvp *predictor.LVP
	env env
	opt Options
}

var trialPool sync.Pool

// release hands the env's trial state back to the pool. The env must
// not be used afterwards.
func (e *env) release() {
	ts := e.ts
	if ts == nil {
		return
	}
	e.ts = nil
	e.m = nil
	trialPool.Put(ts)
}

// newEnv builds one trial's env on a trial state taken from the pool
// (or a fresh one); release hands it back.
func newEnv(opt *Options, seed int64) (*env, error) {
	ts, _ := trialPool.Get().(*trialState)
	if ts == nil {
		ts = &trialState{rng: rand.New(xrand.NewSource(seed))}
	} else {
		// Rand.Seed re-arms the pooled xrand source to exactly the
		// stream a fresh rand.New(rand.NewSource(seed)) would produce,
		// in O(1): the register words are computed as the trial's
		// draws first read them.
		ts.rng.Seed(seed)
	}
	rng := ts.rng
	base, oracle, err := opt.Predictor.Base()
	if err != nil {
		return nil, err
	}
	fcfg := opt.factoryConfig(base, seed)
	var inner predictor.Predictor
	if base == "lvp" {
		// The LVP is the hot kind: recycle the pooled table via
		// Reconfigure instead of constructing from scratch. Reconfigure
		// restores exactly the state a fresh registry build would have.
		if ts.lvp != nil {
			if err := ts.lvp.Reconfigure(predictor.LVPConfig{
				Confidence: fcfg.Confidence, UsePID: fcfg.UsePID,
				FPC: fcfg.FPC, FPCSeed: fcfg.FPCSeed,
			}); err != nil {
				return nil, err
			}
		} else {
			p, err := predictor.New(base, fcfg)
			if err != nil {
				return nil, err
			}
			ts.lvp = p.(*predictor.LVP)
		}
		inner = ts.lvp
	} else {
		inner, err = predictor.New(base, fcfg)
		if err != nil {
			return nil, err
		}
	}
	if oracle {
		// The oracle targets the attacked load's PC in the uniform
		// kernel (and the skewed variant used for unmapped cases).
		inner = predictor.NewOracle(inner,
			uint64(attackLoadPC)*cpu.VirtPCBytes,
			uint64(attackLoadPC+pcSkew)*cpu.VirtPCBytes)
	}
	// Defense wrappers compose in stack order, first mechanism
	// innermost: the canonical "A+R(w)" stacks put A inside R, so the
	// predictor always predicts and every produced value — including
	// A-type's fallback — is window-randomized (Sec. VI-B evaluates the
	// combination for Test+Hit).
	for _, mech := range opt.Defense {
		if pw, ok := mech.(PredictorWrapper); ok {
			inner = pw.WrapPredictor(inner, rng)
		}
	}
	cfg := cpu.Config{
		Effects:         opt.Defense.effectsPolicy(),
		RecordConflicts: true,
		SelectiveReplay: opt.Replay,
	}
	if ts.m != nil {
		ts.m.Hier.Reset()
		if err := ts.m.Reset(cfg, inner, rng); err != nil {
			return nil, err
		}
	} else {
		m, err := cpu.NewMachine(cfg, mem.DefaultHierarchy(), inner, rng)
		if err != nil {
			return nil, err
		}
		ts.m = m
	}
	if ct := opt.Defense.tagger(); ct != nil {
		ts.m.TagFor = ct.ContextTag
	}
	ts.m.Hier.NextLinePrefetch = opt.Prefetch
	ts.m.Noise = opt.Noise
	if opt.Metrics != nil {
		ts.m.AttachMetrics(opt.Metrics)
	}
	train := opt.Confidence
	if opt.TrainIters > 0 {
		train = opt.TrainIters
	}
	// Reuse the pooled env and Options storage; the times buffer and
	// Process slots keep their capacity across trials.
	ts.opt = *opt
	e := &ts.env
	e.m = ts.m
	e.opt = &ts.opt
	e.conf = opt.Confidence
	e.train = train
	e.lastPID = 0
	e.ts = ts
	e.procN = 0
	e.span = obs.Span{} // pooled envs must not inherit a prior trial's span
	return e, nil
}
