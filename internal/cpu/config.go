// Package cpu implements the cycle-level out-of-order core of the
// paper's Fig. 1: a pipeline with fetch, decode/rename, issue,
// execute, writeback and commit stages, a reorder buffer, and a Value
// Prediction System consulted on load cache misses. It stands in for
// the modified gem5 O3CPU the paper's evaluation ran on.
//
// The properties the attacks rely on are modeled explicitly:
//
//   - a load that misses the cache consults the VPS; with enough
//     confidence the predicted value is forwarded to dependents the
//     next cycle ("forward speculated data value");
//   - when the real value returns, the Prediction Engine Verification
//     compares: a misprediction squashes the load's younger
//     instructions and refetches them ("squash the pipeline");
//   - speculatively executed younger loads install cache lines before
//     a squash — the transient (persistent-channel) leak — unless the
//     D-type defense delays side effects until commit;
//   - RDTSC and FENCE serialize against outstanding verification, so
//     the timing-window channel observes correct-prediction vs
//     no-prediction vs misprediction latencies.
package cpu

import "fmt"

// EffectsPolicy selects when a speculative load's side effects become
// visible to the memory hierarchy — the knob behind the pipeline-hook
// defenses of Sec. VI-A.
type EffectsPolicy int

const (
	// EffectsImmediate is the undefended baseline: a load installs its
	// cache line as soon as the access is issued, even if the load is
	// later squashed (the transient leak the persistent channel needs).
	EffectsImmediate EffectsPolicy = iota

	// EffectsDelay is the D-type defense (Sec. VI-A): loads leave no
	// cache state until they commit, so transiently executed loads
	// cannot encode into the persistent channel. Re-accessing a still-
	// speculative line pays the full hierarchy latency again.
	EffectsDelay

	// EffectsRecompute is the value-recomputation defense: like
	// EffectsDelay the hierarchy stays clean until commit, but
	// speculative lines are tracked in a shadow buffer (Machine.Shadow)
	// that serves re-accesses at near-L1 latency, recovering most of the
	// delay policy's slowdown. A squash clears the shadow, so transient
	// accesses leave no state anywhere.
	EffectsRecompute
)

// String names the policy as reports and manifests print it.
func (p EffectsPolicy) String() string {
	switch p {
	case EffectsImmediate:
		return "immediate"
	case EffectsDelay:
		return "delay"
	case EffectsRecompute:
		return "recompute"
	}
	return "?"
}

// The core's fixed timing: the multiply/divide unit's issue slots per
// cycle, execution latencies, and the refetch delays after a squash.
const (
	mulPorts      = 1  // MUL/MULHU/DIVU/REMU issues per cycle
	aluLatency    = 1  // every other ALU op
	mulLatency    = 3  // MUL, MULHU
	divLatency    = 12 // DIVU, REMU
	squashPenalty = 10 // refetch delay after a value-misprediction squash
	branchPenalty = 6  // refetch delay after a branch or JALR redirect
)

// Config parameterizes the core.
type Config struct {
	FetchWidth  int // instructions renamed per cycle; 0 means 4
	IssueWidth  int // instructions issued per cycle; 0 means 4
	CommitWidth int // instructions committed per cycle; 0 means 4
	ROBSize     int // reorder buffer capacity; 0 means 192
	MemPorts    int // loads/stores/flushes issued per cycle; 0 means 2

	MSHRs int // max outstanding cache misses; 0 means 8

	MaxCycles uint64 // per-run watchdog; 0 means 20,000,000

	// Effects selects the speculation-side-effects policy: when loads
	// may touch the cache hierarchy, and whether speculative lines are
	// shadow-buffered. The zero value (EffectsImmediate) is the
	// undefended paper baseline; see EffectsPolicy.
	Effects EffectsPolicy

	// RecordConflicts keeps a per-cycle series of issue-port conflicts
	// in RunResult.ConflictSeries — the observation of the volatile
	// (port-contention) channel, where a co-runner samples contention
	// while the victim executes.
	RecordConflicts bool

	// SelectiveReplay changes value-misprediction recovery from the
	// paper's full pipeline squash (Fig. 1: "squash the pipeline") to
	// selective replay: only the load's dependence closure re-executes.
	// The misprediction penalty shrinks to roughly the dependent
	// chain's latency, which narrows the wrong-vs-none timing contrast
	// while leaving the correct-vs-rest contrast (and thus the attacks)
	// intact — see the ablation tests.
	SelectiveReplay bool

	// CheckInvariants validates microarchitectural invariants every
	// cycle (ROB ordering and capacity, rename-map consistency,
	// in-program-order commit; see checkInvariants in commit.go) and
	// fails the run with an ErrInvariant-wrapped error on violation.
	// The differential oracle enables it on every harness run; it is
	// off by default because the scan is O(ROB) per cycle.
	CheckInvariants bool

	// BimodalBranch enables a 2-bit bimodal branch direction predictor
	// (512 counters, PC-indexed) instead of the default static
	// not-taken policy. The value-predictor attacks are independent of
	// branch prediction (Sec. II: the mechanism works wherever the
	// prediction happens before the value returns); this option exists
	// for realism ablations and to speed up loop-heavy victims.
	BimodalBranch bool
}

func (c *Config) setDefaults() {
	if c.FetchWidth == 0 {
		c.FetchWidth = 4
	}
	if c.IssueWidth == 0 {
		c.IssueWidth = 4
	}
	if c.CommitWidth == 0 {
		c.CommitWidth = 4
	}
	if c.ROBSize == 0 {
		c.ROBSize = 192
	}
	if c.MemPorts == 0 {
		c.MemPorts = 2
	}
	if c.MSHRs == 0 {
		c.MSHRs = 8
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 20_000_000
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.FetchWidth < 0 || c.IssueWidth < 0 || c.CommitWidth < 0 ||
		c.ROBSize < 0 || c.MemPorts < 0 || c.MSHRs < 0 {
		return fmt.Errorf("cpu: negative width in config %+v", c)
	}
	if c.Effects < EffectsImmediate || c.Effects > EffectsRecompute {
		return fmt.Errorf("cpu: unknown effects policy %d", c.Effects)
	}
	return nil
}

// Noise adds seeded random jitter to memory access latencies so timing
// distributions have realistic spread (the paper's histograms, taken
// on gem5 with background activity, are not point masses). Jitter is
// uniform in [0, N].
type Noise struct {
	MemJitter uint64 // extra cycles on accesses served by DRAM
	HitJitter uint64 // extra cycles on cache hits
}

// DefaultNoise is the jitter model every harness runs when none is set:
// up to 12 extra cycles on DRAM-served accesses, up to 2 on hits.
func DefaultNoise() Noise { return Noise{MemJitter: 12, HitJitter: 2} }

// VirtPCBytes is the byte size of one instruction slot: predictor
// contexts use PC = 4*index, mirroring a fixed-width encoding.
const VirtPCBytes = 4
