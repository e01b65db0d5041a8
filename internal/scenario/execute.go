package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"vpsec/internal/asm"
	"vpsec/internal/attacks"
	"vpsec/internal/cachebench"
	"vpsec/internal/core"
	"vpsec/internal/cpu"
	"vpsec/internal/defense"
	"vpsec/internal/obs"
	"vpsec/internal/predictor"
	"vpsec/internal/trace"
)

// DefenseSweep is one category's R-type window sweep within a Result.
type DefenseSweep struct {
	Category  core.Category
	Points    []defense.SweepPoint
	MinWindow int // smallest always-secure window (0: none in range)
}

// SimResult is a KindSim execution: the assembled program plus the
// machine's run counters.
type SimResult struct {
	Program      string // program name (source path)
	Instructions int
	Run          cpu.RunResult
}

// Result is the unified outcome of Execute: exactly one of the result
// groups is populated, per the spec's kind. Spec is the spec as given,
// for labeling output; Execute ran its normal form. Opt is the
// effective (default-applied) attack configuration.
type Result struct {
	Spec Spec
	Opt  attacks.Options

	// Cases holds KindCase/KindVariant/KindEviction/KindSMT results
	// (one entry) and KindFigure panels (four entries, in the paper's
	// panel order).
	Cases []attacks.CaseResult
	// Table3 holds the KindTableIII rows.
	Table3 []attacks.TableIIIRow
	// Noise and Conf hold the sweep points of their kinds.
	Noise []attacks.NoisePoint
	Conf  []attacks.ConfPoint
	// Sweeps holds one per-category R-type window sweep each.
	Sweeps []DefenseSweep
	// Matrix holds the KindDefenseMatrix cells; MatrixAllDefended
	// reports the combined-strategy claim when it was evaluated.
	Matrix            []defense.MatrixCell
	MatrixAllDefended bool
	// Sim holds the KindSim execution.
	Sim *SimResult
	// CacheBench holds the KindCacheBench case or KindCacheMatrix
	// matrix (a single-case kind produces a one-cell matrix).
	CacheBench *cachebench.MatrixResult
}

// Case returns the single case result of a one-case kind.
func (r *Result) Case() attacks.CaseResult {
	if len(r.Cases) == 0 {
		return attacks.CaseResult{}
	}
	return r.Cases[0]
}

// Execute validates the spec and runs its normal form (Canonical plus
// Name, Title and the infrastructure fields), dispatching it to the
// entry point its kind selects. The spec compiles into the exact
// attacks.Options the legacy flag paths built — same seed derivation,
// same trial schedule, same metrics publication — so results are
// byte-identical to direct Run* calls. Result.Spec is the spec as
// given, for labels.
func Execute(ctx context.Context, s Spec) (*Result, error) {
	return ExecuteRecorded(ctx, s, nil)
}

// ExecuteRecorded is Execute with events, when non-nil, receiving a
// KindSim run's pipeline event stream (cpu.Machine.Events: vpsim's
// -pipeview, -kanata and -memtrace). Only a sim spec runs one machine
// a hook can watch, so any other kind rejects one.
func ExecuteRecorded(ctx context.Context, s Spec, events func(trace.Event)) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if events != nil && s.Kind != KindSim {
		return nil, fmt.Errorf("scenario: a pipeline event hook needs a sim spec, not %q", s.Kind)
	}
	// One root span per scenario, carrying the content hash of the spec
	// so a trace is attributable to the exact experiment definition.
	// The span rides the context into the runner, which nests the map,
	// worker and trial spans beneath it.
	if s.Trace.Enabled() {
		span := s.Trace.Start("scenario",
			obs.Str("name", s.Name), obs.Str("kind", string(s.Kind)), obs.Str("spec_sha256", s.Hash()))
		defer span.End()
		ctx = obs.NewContext(ctx, span)
	}
	res, err := execute(ctx, s.normal(), events)
	if err != nil {
		return nil, err
	}
	res.Spec = s
	return res, nil
}

// execute runs a normal-form spec n; every default is already spelled
// out in it.
func execute(ctx context.Context, n Spec, events func(trace.Event)) (*Result, error) {
	if n.Kind == KindSim {
		return executeSim(ctx, n, events)
	}
	if n.Kind == KindCacheBench || n.Kind == KindCacheMatrix {
		return executeCacheBench(ctx, n)
	}
	opt, err := n.options()
	if err != nil {
		return nil, err
	}
	res := &Result{Opt: opt.WithDefaults()}

	switch n.Kind {
	case KindCase:
		cat, err := n.category()
		if err != nil {
			return nil, err
		}
		res.Cases, err = attacks.RunCases(ctx, []attacks.Case{{Category: cat, Opt: opt}})
		if err != nil {
			return nil, err
		}

	case KindVariant:
		v, err := attacks.FindVariant(n.Variant)
		if err != nil {
			return nil, err
		}
		c, err := attacks.RunVariant(ctx, v, opt)
		if err != nil {
			return nil, err
		}
		res.Cases = []attacks.CaseResult{c}

	case KindEviction:
		c, err := attacks.RunTrainTestEviction(ctx, opt)
		if err != nil {
			return nil, err
		}
		res.Cases = []attacks.CaseResult{c}

	case KindSMT:
		cat, err := n.category()
		if err != nil {
			return nil, err
		}
		c, err := attacks.RunVolatileSMT(ctx, cat, opt)
		if err != nil {
			return nil, err
		}
		res.Cases = []attacks.CaseResult{c}

	case KindTableIII:
		rows, err := attacks.TableIII(ctx, res.Opt.Predictor, opt)
		if err != nil {
			return nil, err
		}
		res.Table3 = rows

	case KindFigure:
		cat, err := n.category()
		if err != nil {
			return nil, err
		}
		// The paper's panel order: {timing-window, persistent} x
		// {no VP, predictor}.
		var panels []attacks.Case
		for _, ch := range []core.Channel{core.TimingWindow, core.Persistent} {
			for _, pk := range []attacks.PredictorKind{attacks.NoVP, res.Opt.Predictor} {
				o := opt
				o.Predictor = pk
				o.Channel = ch
				panels = append(panels, attacks.Case{Category: cat, Opt: o})
			}
		}
		if res.Cases, err = attacks.RunCases(ctx, panels); err != nil {
			return nil, err
		}

	case KindNoiseSweep:
		cat, err := n.category()
		if err != nil {
			return nil, err
		}
		if res.Noise, err = attacks.NoiseSweep(ctx, cat, n.Jitters, opt); err != nil {
			return nil, err
		}

	case KindConfSweep:
		cat, err := n.category()
		if err != nil {
			return nil, err
		}
		if res.Conf, err = attacks.ConfidenceSweep(ctx, cat, n.Confidences, opt); err != nil {
			return nil, err
		}

	case KindDefenseSweep:
		for _, name := range n.Categories {
			cat, err := parseCategory(name)
			if err != nil {
				return nil, err
			}
			pts, err := defense.SweepRWindow(ctx, cat, n.MaxWindow, opt)
			if err != nil {
				return nil, err
			}
			res.Sweeps = append(res.Sweeps, DefenseSweep{
				Category:  cat,
				Points:    pts,
				MinWindow: defense.MinimalSecureWindow(pts),
			})
		}

	case KindDefenseMatrix:
		var strategies []defense.Strategy
		for _, name := range n.Strategies {
			st, err := defense.StrategyNamed(name)
			if err != nil {
				return nil, err
			}
			strategies = append(strategies, st)
		}
		cells, err := defense.Matrix(ctx, opt, strategies)
		if err != nil {
			return nil, err
		}
		res.Matrix = cells
		res.MatrixAllDefended = defense.AllDefended(cells, "A+R(9)+D")

	default:
		return nil, fmt.Errorf("scenario: kind %q has no executor", n.Kind)
	}
	return res, nil
}

// executeCacheBench dispatches the benchmark kinds: one case or a
// pattern-list matrix. Both produce a MatrixResult (a case is a
// one-cell matrix), so the renderers and report path are shared. The
// spec's MemJitter override maps to the benchmark noise model exactly
// as it does for the attack kinds.
func executeCacheBench(ctx context.Context, s Spec) (*Result, error) {
	opt := cachebench.Options{
		Runs:    s.Runs,
		Seed:    s.Seed,
		Noise:   s.noise(),
		Jobs:    s.Jobs,
		Metrics: s.Metrics,
		Trace:   s.Trace,
	}
	if s.Kind == KindCacheBench {
		p, err := cachebench.ParsePattern(s.Pattern)
		if err != nil {
			return nil, err
		}
		c, err := cachebench.RunCase(ctx, p, opt)
		if err != nil {
			return nil, err
		}
		m := &cachebench.MatrixResult{
			Runs: c.Runs, Seed: c.Seed, Total: 1,
			Cases:     []cachebench.CaseResult{c},
			Footnotes: cachebench.Limitations(),
		}
		if c.Vulnerable {
			m.Vulnerable = 1
		}
		return &Result{CacheBench: m}, nil
	}
	var pats []cachebench.Pattern
	for _, ps := range s.Patterns {
		p, err := cachebench.ParsePattern(ps)
		if err != nil {
			return nil, err
		}
		pats = append(pats, p)
	}
	m, err := cachebench.RunMatrix(ctx, pats, opt)
	if err != nil {
		return nil, err
	}
	return &Result{CacheBench: m}, nil
}

// executeSim assembles and runs the spec's .vasm program on one
// machine, with events (when non-nil) as its event hook. It is the
// only simulation path: vpsim compiles its flags to a sim spec. The run
// is one uninterruptible machine execution, so ctx can only cancel it
// before it starts.
func executeSim(ctx context.Context, s Spec, events func(trace.Event)) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	src, err := os.ReadFile(s.Program)
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(s.Program, string(src))
	if err != nil {
		return nil, err
	}
	scheme, err := predictor.ParseScheme(s.Scheme)
	if err != nil {
		return nil, err
	}
	pred, err := predictor.New(s.Predictor, predictor.FactoryConfig{Confidence: s.Confidence, Scheme: scheme})
	if err != nil {
		return nil, err
	}
	m, err := cpu.NewMachine(cpu.Config{}, nil, pred, rand.New(rand.NewSource(s.Seed)))
	if err != nil {
		return nil, err
	}
	m.Events = events
	if s.Metrics != nil {
		m.AttachMetrics(s.Metrics)
	}
	proc, err := m.NewProcess(1, prog, 0)
	if err != nil {
		return nil, err
	}
	run, err := m.Run(proc)
	if err != nil {
		return nil, err
	}
	if s.Metrics != nil {
		m.FinalizeMetrics()
	}
	return &Result{Sim: &SimResult{Program: prog.Name, Instructions: len(prog.Code), Run: run}}, nil
}
