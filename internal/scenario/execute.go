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
// groups is populated, per the spec's kind. Opt is the effective
// (default-applied) attack configuration, for labeling output.
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

// Execute validates the spec and dispatches it to the entry point its
// kind selects, compiling the spec into the exact attacks.Options the
// legacy flag paths built — same seed derivation, same trial schedule,
// same metrics publication — so results are byte-identical to direct
// Run* calls.
func Execute(ctx context.Context, s Spec) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
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
	if s.Kind == KindSim {
		return executeSim(ctx, s)
	}
	if s.Kind == KindCacheBench || s.Kind == KindCacheMatrix {
		return executeCacheBench(ctx, s)
	}
	opt, err := s.options()
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: s, Opt: opt.WithDefaults()}

	switch s.Kind {
	case KindCase:
		cat, err := s.category()
		if err != nil {
			return nil, err
		}
		c, err := attacks.RunContext(ctx, cat, opt)
		if err != nil {
			return nil, err
		}
		res.Cases = []attacks.CaseResult{c}

	case KindVariant:
		v, err := attacks.FindVariant(s.Variant)
		if err != nil {
			return nil, err
		}
		c, err := attacks.RunVariant(ctx, v, opt)
		if err != nil {
			return nil, err
		}
		res.Cases = []attacks.CaseResult{c}

	case KindEviction:
		opt.Channel = core.TimingWindow
		c, err := attacks.RunTrainTestEviction(ctx, opt)
		if err != nil {
			return nil, err
		}
		res.Cases = []attacks.CaseResult{c}

	case KindSMT:
		cat, err := s.category()
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
		cat, err := s.category()
		if err != nil {
			return nil, err
		}
		// The paper's panel order: {timing-window, persistent} x
		// {no VP, predictor}.
		for _, ch := range []core.Channel{core.TimingWindow, core.Persistent} {
			for _, pk := range []attacks.PredictorKind{attacks.NoVP, res.Opt.Predictor} {
				o := opt
				o.Predictor = pk
				o.Channel = ch
				c, err := attacks.RunContext(ctx, cat, o)
				if err != nil {
					return nil, err
				}
				res.Cases = append(res.Cases, c)
			}
		}

	case KindNoiseSweep:
		cat, err := s.category()
		if err != nil {
			return nil, err
		}
		jitters := s.Jitters
		if len(jitters) == 0 {
			jitters = []uint64{0, 12, 50, 100, 200, 400, 800}
		}
		pts, err := attacks.NoiseSweep(ctx, cat, jitters, opt)
		if err != nil {
			return nil, err
		}
		res.Noise = pts

	case KindConfSweep:
		cat, err := s.category()
		if err != nil {
			return nil, err
		}
		confs := s.Confidences
		if len(confs) == 0 {
			confs = []int{2, 3, 4, 6, 8}
		}
		pts, err := attacks.ConfidenceSweep(ctx, cat, confs, opt)
		if err != nil {
			return nil, err
		}
		res.Conf = pts

	case KindDefenseSweep:
		maxw := s.MaxWindow
		if maxw == 0 {
			maxw = 10
		}
		for _, name := range s.sweepCategories() {
			cat, err := parseCategory(name)
			if err != nil {
				return nil, err
			}
			pts, err := defense.SweepRWindow(ctx, cat, maxw, opt)
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
		for _, name := range s.Strategies {
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
		return nil, fmt.Errorf("scenario: kind %q has no executor", s.Kind)
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
		Jobs:    s.Jobs,
		Metrics: s.Metrics,
		Trace:   s.Trace,
	}
	if s.MemJitter != nil {
		opt.Noise = cpu.Noise{MemJitter: *s.MemJitter, HitJitter: 2}
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
		return &Result{Spec: s, CacheBench: m}, nil
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
	return &Result{Spec: s, CacheBench: m}, nil
}

// executeSim assembles and runs the spec's .vasm program, mirroring
// cmd/vpsim's machine setup. The run is one uninterruptible machine
// execution, so ctx can only cancel it before it starts.
func executeSim(ctx context.Context, s Spec) (*Result, error) {
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
	name := s.Predictor
	if name == "" {
		name = string(attacks.LVP)
	}
	scheme, err := predictor.ParseScheme(s.Scheme)
	if err != nil {
		return nil, err
	}
	pred, err := predictor.New(name, predictor.FactoryConfig{Confidence: s.Confidence, Scheme: scheme})
	if err != nil {
		return nil, err
	}
	m, err := cpu.NewMachine(cpu.Config{}, nil, pred, rand.New(rand.NewSource(s.Seed)))
	if err != nil {
		return nil, err
	}
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
	return &Result{
		Spec: s,
		Sim:  &SimResult{Program: prog.Name, Instructions: len(prog.Code), Run: run},
	}, nil
}
