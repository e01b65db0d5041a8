package attacks

import (
	"context"
	"fmt"

	"vpsec/internal/core"
	"vpsec/internal/cpu"
	"vpsec/internal/stats"
)

// cpuNoise builds the jitter model for a given DRAM jitter level.
func cpuNoise(memJitter uint64) cpu.Noise {
	return cpu.Noise{MemJitter: memJitter, HitJitter: 2}
}

// CaseResult is the evaluation of one (category, channel, predictor,
// defense) cell, matching how the paper reports Figs. 5/8 and
// Table III: timing distributions for the mapped and unmapped cases, a
// Welch t-test p-value (p < 0.05 ⇒ the attack is effective), and a
// transmission rate for effective attacks.
type CaseResult struct {
	Category core.Category
	Channel  core.Channel
	Opt      Options

	Mapped   []float64 // observations, cycles
	Unmapped []float64

	T       stats.TTestResult
	P       float64 // Welch t-test p-value (the paper's decision metric)
	MWp     float64 // Mann-Whitney U p-value (nonparametric cross-check)
	MeanCyc float64 // mean simulated cycles per trial
	RateBps float64 // modeled transmission rate, bits/second

	// SuccessRate is the fraction of trials a midpoint-threshold
	// classifier labels correctly (the metric behind the RSA demo's
	// 95.7%).
	SuccessRate float64

	// TTrajectory is the Welch t statistic recomputed after each
	// mapped/unmapped trial pair — how fast the attack decision
	// converges as evidence accumulates. The first pair is skipped
	// (variance needs two samples per side).
	TTrajectory []float64
}

// Effective reports whether the attack distinguishes the two cases at
// the paper's significance level (stats.SignificanceLevel).
func (r CaseResult) Effective() bool { return r.P < stats.SignificanceLevel }

// Run evaluates one attack category over one channel per opt,
// executing opt.Runs independent trials of the mapped and unmapped
// cases on fresh machines. Trials run opt.Jobs at a time (see
// Options.Jobs); the result is byte-identical at any worker count.
func Run(cat core.Category, opt Options) (CaseResult, error) {
	return RunContext(context.Background(), cat, opt)
}

// RunContext is Run with cancellation: ctx aborts in-flight trials and
// surfaces ctx.Err().
func RunContext(ctx context.Context, cat core.Category, opt Options) (CaseResult, error) {
	if err := opt.Validate(); err != nil {
		return CaseResult{}, err
	}
	opt.setDefaults()
	if !supportsChannel(cat, opt.Channel) {
		return CaseResult{}, fmt.Errorf("attacks: %v has no %v variant", cat, opt.Channel)
	}
	res := CaseResult{Category: cat, Channel: opt.Channel, Opt: opt}
	totalCycles, err := runCaseTrials(ctx, &opt, &res, true,
		func(e *env, mapped bool) (float64, uint64, error) {
			return e.trial(cat, mapped, opt.Channel)
		})
	if err != nil {
		return res, err
	}
	t, err := stats.WelchTTest(res.Mapped, res.Unmapped)
	if err != nil {
		return res, err
	}
	res.T = t
	res.P = t.P
	mw, err := stats.MannWhitneyU(res.Mapped, res.Unmapped)
	if err != nil {
		return res, err
	}
	res.MWp = mw.P
	res.MeanCyc = totalCycles / float64(2*opt.Runs)
	den := res.MeanCyc
	if !opt.NoSyncCost {
		den += opt.SyncEpoch
	}
	res.RateBps = opt.ClockHz / den
	res.SuccessRate = successRate(res.Mapped, res.Unmapped)
	res.publishCase(opt.Metrics)
	return res, nil
}

// successRate scores a midpoint-threshold classifier on the two
// observation sets.
func successRate(mapped, unmapped []float64) float64 {
	if len(mapped) == 0 || len(unmapped) == 0 {
		return 0
	}
	mm := stats.Summarize(mapped).Mean
	mu := stats.Summarize(unmapped).Mean
	thr := (mm + mu) / 2
	correct := 0
	for _, x := range mapped {
		if (mm >= mu && x >= thr) || (mm < mu && x < thr) {
			correct++
		}
	}
	for _, x := range unmapped {
		if (mm >= mu && x < thr) || (mm < mu && x >= thr) {
			correct++
		}
	}
	return float64(correct) / float64(len(mapped)+len(unmapped))
}

// Histograms bins the two observation sets the way Figs. 5 and 8 plot
// them: frequency vs cycles from 0 to 600 in fixed-width bins.
func (r CaseResult) Histograms(binWidth float64) (*stats.Histogram, *stats.Histogram, error) {
	if binWidth <= 0 {
		binWidth = 20
	}
	max := 600.0
	for _, x := range r.Mapped {
		if x >= max {
			max = x + binWidth
		}
	}
	for _, x := range r.Unmapped {
		if x >= max {
			max = x + binWidth
		}
	}
	hm, err := stats.NewHistogram(0, max, binWidth)
	if err != nil {
		return nil, nil, err
	}
	hu, err := stats.NewHistogram(0, max, binWidth)
	if err != nil {
		return nil, nil, err
	}
	hm.AddAll(r.Mapped)
	hu.AddAll(r.Unmapped)
	return hm, hu, nil
}

// TableIIIRow is one row of Table III: a category evaluated on the
// timing-window channel and (when the category supports it) the
// persistent channel, both without and with the value predictor.
type TableIIIRow struct {
	Category core.Category

	TWNoVP CaseResult
	TWVP   CaseResult

	HasPersistent bool
	PersNoVP      CaseResult
	PersVP        CaseResult
}

// TableIII reproduces Table III for the given predictor kind: for each
// of the six attack categories, p-values with no VP and with the
// predictor enabled, plus transmission rates. ctx cancels the whole
// table (see RunContext).
func TableIII(ctx context.Context, kind PredictorKind, base Options) ([]TableIIIRow, error) {
	var rows []TableIIIRow
	for _, cat := range core.Categories() {
		row := TableIIIRow{Category: cat}
		for _, ch := range []core.Channel{core.TimingWindow, core.Persistent} {
			if !supportsChannel(cat, ch) {
				continue
			}
			for _, pk := range []PredictorKind{NoVP, kind} {
				opt := base
				opt.Predictor = pk
				opt.Channel = ch
				r, err := RunContext(ctx, cat, opt)
				if err != nil {
					return nil, err
				}
				switch {
				case ch == core.TimingWindow && pk == NoVP:
					row.TWNoVP = r
				case ch == core.TimingWindow:
					row.TWVP = r
				case pk == NoVP:
					row.HasPersistent = true
					row.PersNoVP = r
				default:
					row.PersVP = r
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ConfPoint is one confidence-threshold evaluation of an attack.
type ConfPoint struct {
	Confidence int
	P          float64
	RateBps    float64
}

// ConfidenceSweep evaluates an attack across VPS confidence thresholds
// (the paper's footnote 3 parameter). The attacks adapt — the train
// step always makes a confidence number of accesses — so effectiveness
// is expected at every threshold, while the transmission rate falls as
// training gets longer. ctx cancels the whole sweep (see RunContext).
func ConfidenceSweep(ctx context.Context, cat core.Category, confs []int, base Options) ([]ConfPoint, error) {
	var out []ConfPoint
	for _, c := range confs {
		if c < 1 {
			return nil, fmt.Errorf("attacks: confidence %d < 1", c)
		}
		opt := base
		opt.Confidence = c
		r, err := RunContext(ctx, cat, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, ConfPoint{Confidence: c, P: r.P, RateBps: r.RateBps})
	}
	return out, nil
}

// NoisePoint is one jitter level's evaluation.
type NoisePoint struct {
	MemJitter uint64
	P         float64
	Success   float64
}

// NoiseSweep evaluates an attack under growing memory-latency jitter —
// the robustness curve real systems decide an attack's practicality
// by. The timing-window separations here are ~170 cycles, so the
// attacks survive jitter well past the DRAM latency itself. ctx
// cancels the whole sweep (see RunContext).
func NoiseSweep(ctx context.Context, cat core.Category, jitters []uint64, base Options) ([]NoisePoint, error) {
	var out []NoisePoint
	for _, j := range jitters {
		opt := base
		opt.Noise = cpuNoise(j)
		r, err := RunContext(ctx, cat, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, NoisePoint{MemJitter: j, P: r.P, Success: r.SuccessRate})
	}
	return out, nil
}
