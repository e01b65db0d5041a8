// Package scenario is the declarative experiment layer: a Spec is a
// validated, JSON-round-trippable description of one evaluation — the
// predictor under attack, the channel, the attack category or Table II
// pattern (or a sweep over windows, confidence thresholds or noise),
// the defense configuration, and the trial parameters — and Execute
// dispatches it to the right internal/attacks or internal/defense
// entry point, returning a unified Result.
//
// Named scenarios for every cell of the paper's evaluation matrix
// (Table III, the twelve Table II rows, the Fig. 5/8 distribution
// panels, the Sec. VI defense sweeps and matrix, the SMT and
// eviction-set ablations) live in a registry; Names lists them and
// every CLI front-end accepts `-scenario <file|name>`. A Spec is also
// a serializable job payload: the same JSON a CLI loads from disk can
// be queued to a batch or server front-end.
//
// The layer is a strict re-founding, not a reimplementation: a Spec
// compiles to exactly the attacks.Options the legacy flag paths built,
// so same-seed results — observations, statistics, and metrics
// exports — are byte-identical to direct Run* calls (see the
// equivalence tests in execute_test.go).
package scenario

import (
	"cmp"
	"fmt"
	"runtime"

	"vpsec/internal/attacks"
	"vpsec/internal/cachebench"
	"vpsec/internal/core"
	"vpsec/internal/cpu"
	"vpsec/internal/defense"
	"vpsec/internal/metrics"
	"vpsec/internal/obs"
	"vpsec/internal/predictor"
)

// Kind selects which entry point a Spec dispatches to.
type Kind string

// Scenario kinds.
const (
	// KindCase evaluates one (category, channel) cell via attacks.Run.
	KindCase Kind = "case"
	// KindVariant evaluates one specific Table II pattern via
	// attacks.RunVariant (timing-window channel).
	KindVariant Kind = "variant"
	// KindEviction evaluates Train+Test with eviction-set misses via
	// attacks.RunTrainTestEviction.
	KindEviction Kind = "eviction"
	// KindSMT evaluates the honest SMT co-runner volatile channel via
	// attacks.RunVolatileSMT.
	KindSMT Kind = "smt"
	// KindTableIII reproduces the full Table III for the predictor.
	KindTableIII Kind = "table3"
	// KindFigure reproduces the four Fig. 5/Fig. 8 distribution panels
	// ({timing-window, persistent} x {no VP, predictor}).
	KindFigure Kind = "figure"
	// KindNoiseSweep sweeps memory-latency jitter over one category.
	KindNoiseSweep Kind = "noise-sweep"
	// KindConfSweep sweeps the VPS confidence threshold over one
	// category.
	KindConfSweep Kind = "conf-sweep"
	// KindDefenseSweep sweeps R-type window sizes 1..MaxWindow against
	// one or more categories via defense.SweepRWindow.
	KindDefenseSweep Kind = "defense-sweep"
	// KindDefenseMatrix evaluates the strategy x attack defense matrix
	// via defense.Matrix.
	KindDefenseMatrix Kind = "defense-matrix"
	// KindSim runs a .vasm program on the simulator; cmd/vpsim compiles
	// a program run to it.
	KindSim Kind = "sim"
	// KindCacheBench evaluates one three-step cache-vulnerability case
	// via cachebench.RunCase (see internal/cachebench).
	KindCacheBench Kind = "cachebench"
	// KindCacheMatrix evaluates a cachebench pattern list (empty: the
	// whole family) into the vulnerability-matrix report via
	// cachebench.RunMatrix.
	KindCacheMatrix Kind = "cachebench-matrix"
)

// Kinds lists every scenario kind in a stable order.
func Kinds() []Kind {
	return []Kind{KindCase, KindVariant, KindEviction, KindSMT, KindTableIII,
		KindFigure, KindNoiseSweep, KindConfSweep, KindDefenseSweep,
		KindDefenseMatrix, KindSim, KindCacheBench, KindCacheMatrix}
}

// DefenseSpec selects the Sec. VI defenses by one of two spellings,
// never both; normal folds every defense to one of them (DESIGN §11).
type DefenseSpec struct {
	// Strategy names a configuration: a defense.Strategies or
	// defense.ExtendedStrategies catalog name, resolved first, else a
	// canonical mechanism-stack string (e.g. "A+R(9)+D",
	// "A+R(5)+recompute"). A catalog name shadows the stack it spells:
	// "A+R(5)" is the catalog's A-fixed+R(5).
	Strategy string `json:"strategy,omitempty"`
	// Stack is a mechanism-stack string read by attacks.ParseStack
	// alone, never the catalog: "A+R(5)" is the history-flavor A
	// followed by R(5).
	Stack string `json:"stack,omitempty"`
}

// config resolves the defense spec to its mechanism stack; an empty
// spec is the undefended baseline.
func (d *DefenseSpec) config() (attacks.DefenseStack, error) {
	switch {
	case d == nil:
		return nil, nil
	case d.Strategy != "" && d.Stack != "":
		return nil, fmt.Errorf("scenario: defense sets both strategy %q and stack %q", d.Strategy, d.Stack)
	case d.Stack != "":
		stack, err := attacks.ParseStack(d.Stack)
		if err != nil {
			return nil, fmt.Errorf("scenario: defense stack %q: %v", d.Stack, err)
		}
		return stack, nil
	}
	s, err := defense.StrategyNamed(d.Strategy)
	if err != nil {
		return nil, err
	}
	return s.Stack, nil
}

// Spec is one declarative experiment. The zero value of every optional
// field means "the documented default" (see Defaults and
// attacks.Options); a marshaled Spec therefore contains exactly the
// knobs the experiment pins.
type Spec struct {
	// Name is the registry key; empty for ad-hoc specs loaded from
	// files.
	Name string `json:"name,omitempty"`
	// Title is a one-line human description (shown by -list).
	Title string `json:"title,omitempty"`
	// Kind selects the entry point; see Kinds.
	Kind Kind `json:"kind"`

	// Predictor is the VPS under attack: one of attacks.PredictorKinds
	// (none, lvp, vtage, stride, stride-2d, fcm, oracle-lvp,
	// oracle-vtage); empty means lvp. KindSim accepts only base
	// registry kinds (no oracle-*).
	Predictor string `json:"predictor,omitempty"`
	// Confidence is the VPS confidence number; 0 means 4.
	Confidence int `json:"confidence,omitempty"`
	// Channel is the exfiltration channel: timing-window (default),
	// persistent, or volatile.
	Channel string `json:"channel,omitempty"`
	// Category names one attack category of Table II, e.g.
	// "Train + Test".
	Category string `json:"category,omitempty"`
	// Categories lists the categories a defense-sweep covers; empty
	// falls back to Category, and then to the paper's Train+Test and
	// Test+Hit sweeps.
	Categories []string `json:"categories,omitempty"`
	// Variant is a Table II pattern rendered in the paper's notation,
	// e.g. "R^KI, S^SI', R^KI" (KindVariant).
	Variant string `json:"variant,omitempty"`

	// Runs is the number of mapped/unmapped trial pairs per case; 0
	// means 100, the paper's sample size.
	Runs int `json:"runs,omitempty"`
	// Seed is the base RNG seed (trial i derives its machine seed from
	// it alone; see DESIGN.md §8).
	Seed int64 `json:"seed,omitempty"`
	// Jobs bounds concurrent trials; 0 means all cores, 1 the
	// sequential legacy path. Results are identical at every value.
	Jobs int `json:"jobs,omitempty"`

	// Defense selects the Sec. VI defense configuration.
	Defense *DefenseSpec `json:"defense,omitempty"`

	// Ablation knobs, mirroring attacks.Options.
	UsePID      bool `json:"use_pid,omitempty"`      // pid-indexed VPS (Sec. V-B)
	Prefetch    bool `json:"prefetch,omitempty"`     // next-line prefetcher ablation
	Replay      bool `json:"replay,omitempty"`       // selective-replay recovery
	ResetModify bool `json:"reset_modify,omitempty"` // 1-access modify variant (Sec. IV-A)
	FPC         int  `json:"fpc,omitempty"`          // forward-probabilistic confidence rate 1/N
	TrainIters  int  `json:"train_iters,omitempty"`  // training accesses per trial (0: confidence)
	NoSyncCost  bool `json:"no_sync_cost,omitempty"` // drop the sync epoch from the rate model

	// MemJitter overrides the memory-latency jitter; nil keeps the
	// default noise model.
	MemJitter *uint64 `json:"mem_jitter,omitempty"`

	// Jitters are the KindNoiseSweep points; empty means the standard
	// 0..800 sweep.
	Jitters []uint64 `json:"jitters,omitempty"`
	// Confidences are the KindConfSweep points; empty means the paper's
	// {2,3,4,6,8}.
	Confidences []int `json:"confidences,omitempty"`
	// MaxWindow is the largest R-type window a KindDefenseSweep tries;
	// 0 means 10.
	MaxWindow int `json:"max_window,omitempty"`
	// Strategies restricts a KindDefenseMatrix to named strategies
	// (defense.StrategyNamed also accepts canonical stack strings);
	// empty evaluates all of defense.Strategies.
	Strategies []string `json:"strategies,omitempty"`
	// Slowdown adds the security-vs-slowdown section to a
	// KindDefenseMatrix render: per-strategy mean trial cycles and
	// slowdown relative to the undefended baseline.
	Slowdown bool `json:"slowdown,omitempty"`

	// Program is the .vasm file a KindSim scenario assembles and runs.
	Program string `json:"program,omitempty"`
	// Scheme is the KindSim predictor index: pc (default), addr, or
	// phys.
	Scheme string `json:"scheme,omitempty"`

	// Pattern is the KindCacheBench case, in canonical
	// <s1>-<s2>-<s3>-<line|set> spelling (cachebench.ParsePattern).
	Pattern string `json:"pattern,omitempty"`
	// Patterns restricts a KindCacheMatrix to the listed cases; empty
	// evaluates the whole enumerated family.
	Patterns []string `json:"patterns,omitempty"`

	// Metrics, when non-nil, receives every trial's counters exactly as
	// the legacy flag paths wired it. Excluded from JSON: a registry is
	// shared infrastructure, not part of the experiment description.
	Metrics *metrics.Registry `json:"-"`

	// Trace, when non-nil, records execution spans for the run (see
	// internal/obs): a "scenario" root span plus the runner's map,
	// worker and trial spans and the attack-phase spans beneath it.
	// Excluded from JSON like Metrics — observability infrastructure,
	// not part of the experiment description — and therefore also
	// excluded from Hash.
	Trace *obs.Tracer `json:"-"`
}

// Defaults returns the paper's documented evaluation defaults — 100
// runs per case, confidence number 4, base seed 1, the LVP over the
// timing-window channel — as a Spec. Every CLI front-end derives its
// flag defaults from this one value, so the documented defaults cannot
// drift per-tool.
func Defaults() Spec {
	return Spec{
		Kind:       KindCase,
		Predictor:  string(attacks.LVP),
		Confidence: 4,
		Channel:    core.TimingWindow.String(),
		Runs:       100,
		Seed:       1,
	}
}

// DefaultDefenseRuns is the default trial count per defense cell (the
// sweeps and matrix run 3 disjoint-seed repetitions per cell, so they
// use a smaller per-case sample than the headline attacks).
func DefaultDefenseRuns() int { return 60 }

// defaultJitters returns the noise-sweep points an empty Jitters means,
// the standard 0..800 sweep, as a fresh slice.
func defaultJitters() []uint64 { return []uint64{0, 12, 50, 100, 200, 400, 800} }

// defaultConfidences returns the conf-sweep points an empty Confidences
// means, the paper's {2,3,4,6,8}, as a fresh slice.
func defaultConfidences() []int { return []int{2, 3, 4, 6, 8} }

// DefaultJobs is the default trial concurrency every CLI front-end
// advertises: all cores.
func DefaultJobs() int { return runtime.NumCPU() }

// parseChannel maps the spec/CLI channel spelling to the core channel;
// empty means timing-window.
func parseChannel(s string) (core.Channel, error) {
	for _, ch := range []core.Channel{core.TimingWindow, core.Persistent, core.Volatile} {
		if s == ch.String() {
			return ch, nil
		}
	}
	if s == "" {
		return core.TimingWindow, nil
	}
	return 0, fmt.Errorf("scenario: unknown channel %q", s)
}

// parseCategory maps a Table II category name to the core category.
func parseCategory(s string) (core.Category, error) {
	for _, c := range core.Categories() {
		if string(c) == s {
			return c, nil
		}
	}
	return "", fmt.Errorf("scenario: unknown attack category %q (categories: %v)", s, core.Categories())
}

// options compiles the spec into the exact attacks.Options the legacy
// flag paths built (defaults are applied by the Run* entry points, as
// before).
func (s *Spec) options() (attacks.Options, error) {
	ch, err := parseChannel(s.Channel)
	if err != nil {
		return attacks.Options{}, err
	}
	def, err := s.Defense.config()
	if err != nil {
		return attacks.Options{}, err
	}
	opt := attacks.Options{
		Predictor:   attacks.PredictorKind(s.Predictor),
		Confidence:  s.Confidence,
		Channel:     ch,
		Defense:     def,
		Runs:        s.Runs,
		Seed:        s.Seed,
		Jobs:        s.Jobs,
		UsePID:      s.UsePID,
		Prefetch:    s.Prefetch,
		Replay:      s.Replay,
		ResetModify: s.ResetModify,
		FPC:         s.FPC,
		TrainIters:  s.TrainIters,
		NoSyncCost:  s.NoSyncCost,
		Noise:       s.noise(),
		Metrics:     s.Metrics,
		Trace:       s.Trace,
	}
	return opt, nil
}

// noise compiles MemJitter into the jitter model the attack and
// benchmark kinds share; nil leaves the zero model, which each harness
// replaces with its default.
func (s *Spec) noise() cpu.Noise {
	if s.MemJitter == nil {
		return cpu.Noise{}
	}
	n := cpu.DefaultNoise()
	n.MemJitter = *s.MemJitter
	return n
}

// category resolves the spec's single category field.
func (s *Spec) category() (core.Category, error) {
	if s.Category == "" {
		return "", fmt.Errorf("scenario: kind %q needs a category", s.Kind)
	}
	return parseCategory(s.Category)
}

// Validate reports whether the spec is executable: the kind is known,
// names resolve (predictor kind, category, Table II pattern, channel,
// defense strategy or stack), the kind's required fields are present,
// and the numeric knobs pass attacks.Options validation.
func (s *Spec) Validate() error {
	known := false
	for _, k := range Kinds() {
		if s.Kind == k {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("scenario: unknown kind %q (kinds: %v)", s.Kind, Kinds())
	}

	if s.Kind == KindSim {
		if s.Program == "" {
			return fmt.Errorf("scenario: sim spec needs a program")
		}
		if _, err := predictor.ParseScheme(s.Scheme); err != nil {
			return fmt.Errorf("scenario: %v", err)
		}
		name := cmp.Or(s.Predictor, Defaults().Predictor)
		if !predictor.Registered(name) {
			return fmt.Errorf("scenario: sim predictor %q is not registered (registered: %v)",
				name, predictor.Names())
		}
		if s.Confidence < 0 {
			return fmt.Errorf("scenario: negative confidence")
		}
		return nil
	}

	if s.Kind == KindCacheBench || s.Kind == KindCacheMatrix {
		// The benchmark kinds carry only (pattern[s], runs, seed, jobs,
		// mem_jitter); the attack-harness knobs do not apply.
		if s.Runs < 0 {
			return fmt.Errorf("scenario: negative runs")
		}
		if s.Kind == KindCacheBench {
			if s.Pattern == "" {
				return fmt.Errorf("scenario: cachebench spec needs a pattern")
			}
			if _, err := cachebench.ParsePattern(s.Pattern); err != nil {
				return err
			}
			if len(s.Patterns) > 0 {
				return fmt.Errorf("scenario: cachebench spec takes pattern, not patterns")
			}
			return nil
		}
		if s.Pattern != "" {
			return fmt.Errorf("scenario: cachebench-matrix spec takes patterns, not pattern")
		}
		for _, ps := range s.Patterns {
			if _, err := cachebench.ParsePattern(ps); err != nil {
				return err
			}
		}
		return nil
	}

	if s.Predictor != "" {
		if _, _, err := attacks.PredictorKind(s.Predictor).Base(); err != nil {
			return err
		}
	}
	opt, err := s.options()
	if err != nil {
		return err
	}
	if err := opt.Validate(); err != nil {
		return err
	}

	switch s.Kind {
	case KindCase, KindNoiseSweep, KindConfSweep, KindSMT, KindFigure:
		cat, err := s.category()
		if err != nil {
			return err
		}
		if s.Kind == KindFigure && cat != core.TrainTest && cat != core.TestHit {
			return fmt.Errorf("scenario: figure spec supports Train + Test (Fig. 5) or Test + Hit (Fig. 8), not %q", cat)
		}
	case KindVariant:
		if _, err := attacks.FindVariant(s.Variant); err != nil {
			return err
		}
	case KindDefenseSweep:
		for _, c := range s.sweepCategories() {
			if _, err := parseCategory(c); err != nil {
				return err
			}
		}
		if s.MaxWindow < 0 {
			return fmt.Errorf("scenario: negative max_window")
		}
	case KindDefenseMatrix:
		for _, name := range s.Strategies {
			if _, err := defense.StrategyNamed(name); err != nil {
				return err
			}
		}
	}
	if s.Kind == KindConfSweep {
		for _, c := range s.Confidences {
			if c < 1 {
				return fmt.Errorf("scenario: conf-sweep confidence %d < 1", c)
			}
		}
	}
	return nil
}

// sweepCategories resolves the category list a defense sweep covers:
// Categories, else the single Category, else the paper's two headline
// sweeps.
func (s *Spec) sweepCategories() []string {
	if len(s.Categories) > 0 {
		return s.Categories
	}
	if s.Category != "" {
		return []string{s.Category}
	}
	return []string{string(core.TrainTest), string(core.TestHit)}
}
