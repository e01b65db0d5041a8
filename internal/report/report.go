// Package report aggregates the whole reproduction into one structured
// result — the attack model, Table III, the volatile-channel cells,
// the defense evaluation, the RSA key recovery and the performance
// ablation — and renders it as Markdown or JSON. cmd/vpreport uses it
// to regenerate an EXPERIMENTS.md-style document in one command.
//
// Every attack and defense evaluation in the report is expressed as an
// internal/scenario spec and dispatched through scenario.Execute, so
// the report measures exactly what the standalone tools (vpattack,
// vpdefense, vpfigures) measure for the same spec.
package report

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"vpsec/internal/attacks"
	"vpsec/internal/cachebench"
	"vpsec/internal/core"
	"vpsec/internal/defense"
	"vpsec/internal/locality"
	"vpsec/internal/metrics"
	"vpsec/internal/obs"
	"vpsec/internal/rsa"
	"vpsec/internal/scenario"
	"vpsec/internal/workload"
)

// Config parameterizes report generation.
type Config struct {
	Runs        int   // trials per attack case; 0 means 100
	DefenseRuns int   // trials per defense cell; 0 means 60
	Seed        int64 // base seed
	Predictor   attacks.PredictorKind
	// Quick trims the expensive sections (defense matrix, sweeps) for
	// smoke runs.
	Quick bool

	// Jobs bounds how many trials each attack evaluation simulates
	// concurrently (attacks.Options.Jobs): 0 means runtime.NumCPU(),
	// 1 the legacy sequential path. The report's numbers are
	// byte-identical at every value.
	Jobs int

	// Metrics, when non-nil, receives the counters of every attack
	// evaluation the report runs (see internal/metrics). Excluded from
	// the report's own JSON.
	Metrics *metrics.Registry `json:"-"`

	// Trace, when non-nil, traces every evaluation the report runs
	// (see internal/obs). Excluded from the report's own JSON.
	Trace *obs.Tracer `json:"-"`
}

func (c *Config) setDefaults() {
	if c.Runs == 0 {
		c.Runs = 100
	}
	if c.DefenseRuns == 0 {
		c.DefenseRuns = 60
	}
	if c.Predictor == "" {
		c.Predictor = attacks.LVP
	}
}

// AttackCell is one evaluated attack case.
type AttackCell struct {
	Category  string  `json:"category"`
	Channel   string  `json:"channel"`
	Predictor string  `json:"predictor"`
	P         float64 `json:"p_value"`
	Effective bool    `json:"effective"`
	RateKbps  float64 `json:"rate_kbps"`
	Success   float64 `json:"success_rate"`
}

// SweepCell is one R-type window evaluation.
type SweepCell struct {
	Category string  `json:"category"`
	Window   int     `json:"window"`
	P        float64 `json:"p_value"`
	Secure   bool    `json:"secure"`
}

// RSAResult is the Fig. 7 experiment summary.
type RSAResult struct {
	Bits       int     `json:"bits"`
	BitSuccess float64 `json:"bit_success"`
	Recovered  bool    `json:"recovered_exactly"`
	RateKbps   float64 `json:"rate_kbps"`
	ResultOK   bool    `json:"victim_result_ok"`
}

// AuditRow is one predictable load from the locality audit.
type AuditRow struct {
	PC     int     `json:"pc"`
	Execs  int     `json:"execs"`
	Family string  `json:"family"`
	Rate   float64 `json:"rate"`
}

// CacheCell is one cache-vulnerability benchmark case (see
// internal/cachebench): a three-step pattern with both decision
// p-values, the effect size, and the verdict.
type CacheCell struct {
	Pattern    string  `json:"pattern"`
	Attack     string  `json:"attack,omitempty"`
	P          float64 `json:"p_value"`
	MWp        float64 `json:"mw_p_value"`
	AbsD       float64 `json:"abs_cohen_d"`
	Vulnerable bool    `json:"vulnerable"`
}

// PerfResult is the value-prediction speedup measurement.
type PerfResult struct {
	Kernel  string  `json:"kernel"`
	BaseIPC float64 `json:"base_ipc"`
	VPIPC   float64 `json:"vp_ipc"`
	Speedup float64 `json:"speedup"`
}

// Report is the full reproduction result.
type Report struct {
	GeneratedAt time.Time `json:"generated_at"`
	Config      Config    `json:"config"`

	PatternsTotal int      `json:"patterns_total"`
	Variants      []string `json:"table_ii_variants"`

	TableIII []AttackCell `json:"table_iii"`
	Volatile []AttackCell `json:"volatile_channel"`
	// RowResults evaluates every Table II pattern individually.
	RowResults []AttackCell `json:"table_ii_row_results"`

	Sweeps             []SweepCell          `json:"r_window_sweeps,omitempty"`
	MinWindowTrainTest int                  `json:"min_window_train_test,omitempty"`
	MinWindowTestHit   int                  `json:"min_window_test_hit,omitempty"`
	DefenseMatrix      []defense.MatrixCell `json:"defense_matrix,omitempty"`
	CombinedDefends    bool                 `json:"combined_defends_all"`

	// CacheMatrix is the curated cache-vulnerability benchmark matrix
	// (the "cachebench-matrix" scenario); CacheFootnotes carries the
	// cache-model limitations its verdicts must be read under.
	CacheMatrix     []CacheCell `json:"cache_vulnerability_matrix,omitempty"`
	CacheVulnerable int         `json:"cache_vulnerable,omitempty"`
	CacheFootnotes  []string    `json:"cache_footnotes,omitempty"`

	RSA  RSAResult    `json:"rsa"`
	Perf []PerfResult `json:"performance"`

	// Audit is the load-value locality audit of the RSA victim: the
	// static-load attack surface the leak exploits.
	Audit []AuditRow `json:"rsa_locality_audit,omitempty"`

	// Ablations beyond the paper's evaluation.
	Ablations []AttackCell `json:"ablations,omitempty"`
}

// spec seeds a scenario spec with the report's shared trial
// parameters; callers pin the experiment-specific knobs on top.
func (c Config) spec(kind scenario.Kind) scenario.Spec {
	return scenario.Spec{
		Kind:    kind,
		Runs:    c.Runs,
		Seed:    c.Seed,
		Jobs:    c.Jobs,
		Metrics: c.Metrics,
		Trace:   c.Trace,
	}
}

// Generate runs the evaluation and assembles the report. now is
// injected so callers control timestamps (and tests stay
// deterministic); ctx cancels every scenario the report runs.
func Generate(ctx context.Context, cfg Config, now time.Time) (*Report, error) {
	cfg.setDefaults()
	r := &Report{GeneratedAt: now, Config: cfg}

	// Attack model.
	r.PatternsTotal = len(core.AllPatterns())
	for _, v := range core.Reduce() {
		r.Variants = append(r.Variants, fmt.Sprintf("%s -> %s", v.Pattern, v.Category))
	}

	// Table III.
	t3 := cfg.spec(scenario.KindTableIII)
	t3.Predictor = string(cfg.Predictor)
	t3res, err := scenario.Execute(ctx, t3)
	if err != nil {
		return nil, err
	}
	for _, row := range t3res.Table3 {
		r.TableIII = append(r.TableIII, toCell(row.TWNoVP), toCell(row.TWVP))
		if row.HasPersistent {
			r.TableIII = append(r.TableIII, toCell(row.PersNoVP), toCell(row.PersVP))
		}
	}

	// Volatile channel cells.
	for _, cat := range []core.Category{core.TrainTest, core.TestHit, core.FillUp} {
		for _, pk := range []attacks.PredictorKind{attacks.NoVP, cfg.Predictor} {
			s := cfg.spec(scenario.KindCase)
			s.Category = string(cat)
			s.Channel = core.Volatile.String()
			s.Predictor = string(pk)
			res, err := scenario.Execute(ctx, s)
			if err != nil {
				return nil, err
			}
			r.Volatile = append(r.Volatile, toCell(res.Case()))
		}
	}

	// Every Table II row, individually.
	for _, v := range core.Reduce() {
		s := cfg.spec(scenario.KindVariant)
		s.Predictor = string(cfg.Predictor)
		s.Variant = v.Pattern.String()
		res, err := scenario.Execute(ctx, s)
		if err != nil {
			return nil, err
		}
		cell := toCell(res.Case())
		cell.Category = v.Pattern.String() + " (" + string(v.Category) + ")"
		r.RowResults = append(r.RowResults, cell)
	}

	// Defenses.
	if !cfg.Quick {
		for _, sw := range []struct {
			cat  core.Category
			maxw int
		}{{core.TrainTest, 5}, {core.TestHit, 10}} {
			s := cfg.spec(scenario.KindDefenseSweep)
			s.Runs = cfg.DefenseRuns
			s.Category = string(sw.cat)
			s.MaxWindow = sw.maxw
			res, err := scenario.Execute(ctx, s)
			if err != nil {
				return nil, err
			}
			for _, p := range res.Sweeps[0].Points {
				r.Sweeps = append(r.Sweeps, SweepCell{Category: string(sw.cat), Window: p.Window, P: p.P, Secure: !p.Effective()})
			}
			if sw.cat == core.TrainTest {
				r.MinWindowTrainTest = res.Sweeps[0].MinWindow
			} else {
				r.MinWindowTestHit = res.Sweeps[0].MinWindow
			}
		}

		// The matrix runs the extended catalog — the Sec. VI-B strategies
		// plus value recomputation and context isolation — with per-trial
		// cycle counts, so every row is priced by its slowdown.
		m := cfg.spec(scenario.KindDefenseMatrix)
		m.Runs = cfg.DefenseRuns
		m.Slowdown = true
		m.Strategies = defense.CatalogNames()
		mres, err := scenario.Execute(ctx, m)
		if err != nil {
			return nil, err
		}
		r.DefenseMatrix = mres.Matrix
		r.CombinedDefends = mres.MatrixAllDefended
	}

	// Ablations (skipped in Quick mode).
	if !cfg.Quick {
		add := func(label string, s scenario.Spec) error {
			res, err := scenario.Execute(ctx, s)
			if err != nil {
				return err
			}
			cell := toCell(res.Case())
			cell.Category = label
			r.Ablations = append(r.Ablations, cell)
			return nil
		}
		ev := cfg.spec(scenario.KindEviction)
		ev.Predictor = string(cfg.Predictor)
		if err := add("Train+Test via eviction sets (no CLFLUSH)", ev); err != nil {
			return nil, err
		}
		rp := cfg.spec(scenario.KindCase)
		rp.Category = string(core.TrainTest)
		rp.Predictor = string(cfg.Predictor)
		rp.Replay = true
		if err := add("Train+Test under selective-replay recovery", rp); err != nil {
			return nil, err
		}
		pd := cfg.spec(scenario.KindCase)
		pd.Category = string(core.TrainTest)
		pd.Predictor = string(cfg.Predictor)
		pd.UsePID = true
		if err := add("Train+Test with pid-indexed VPS (should fail)", pd); err != nil {
			return nil, err
		}
		smt := cfg.spec(scenario.KindSMT)
		smt.Category = string(core.TestHit)
		smt.Predictor = string(cfg.Predictor)
		if err := add("Test+Hit volatile via SMT co-runner", smt); err != nil {
			return nil, err
		}
		s2d := cfg.spec(scenario.KindCase)
		s2d.Category = string(core.TrainTest)
		s2d.Predictor = string(attacks.Stride2D)
		if err := add("Train+Test on 2-delta stride predictor", s2d); err != nil {
			return nil, err
		}
		// FPC only exists on LVP/VTAGE; pin LVP so the row is meaningful
		// regardless of the report's configured predictor.
		fpcMin := cfg.spec(scenario.KindCase)
		fpcMin.Category = string(core.TrainTest)
		fpcMin.Predictor = string(attacks.LVP)
		fpcMin.FPC = 4
		if err := add("Train+Test, FPC 1/4 counters, minimal training (should fail)", fpcMin); err != nil {
			return nil, err
		}
		fpcLong := fpcMin
		fpcLong.TrainIters = 24
		if err := add("Train+Test, FPC 1/4 counters, 6x training", fpcLong); err != nil {
			return nil, err
		}
	}

	// Cache-vulnerability benchmark matrix (skipped in Quick mode, like
	// the other wide sections): the curated pattern set of the
	// "cachebench-matrix" scenario — every published attack plus the
	// expected-safe controls.
	if !cfg.Quick {
		cb := cfg.spec(scenario.KindCacheMatrix)
		cb.Patterns = cachebench.ShrunkPatterns()
		res, err := scenario.Execute(ctx, cb)
		if err != nil {
			return nil, err
		}
		for _, c := range res.CacheBench.Cases {
			absd := c.CohenD
			if absd < 0 {
				absd = -absd
			}
			r.CacheMatrix = append(r.CacheMatrix, CacheCell{
				Pattern: c.Pattern, Attack: c.Attack,
				P: c.P, MWp: c.MWp, AbsD: absd, Vulnerable: c.Vulnerable,
			})
		}
		r.CacheVulnerable = res.CacheBench.Vulnerable
		r.CacheFootnotes = res.CacheBench.Footnotes
	}

	// RSA key recovery.
	rsaCfg := rsa.PaperVictim(24)
	res, err := rsa.Attack(ctx, rsaCfg, rsa.AttackOptions{Seed: cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	r.RSA = RSAResult{
		Bits:       res.Bits,
		BitSuccess: res.BitSuccess,
		Recovered:  res.Recovered == rsaCfg.Exponent,
		RateKbps:   res.RateBps / 1000,
		ResultOK:   res.ResultOK,
	}

	// Locality audit of the same victim: which static loads form the
	// attack surface, and under which predictor family.
	vict, err := rsa.BuildVictim(rsaCfg)
	if err != nil {
		return nil, err
	}
	aud, err := locality.Profile(vict)
	if err != nil {
		return nil, err
	}
	for _, s := range aud.Surface(locality.DefaultThreshold) {
		rate := s.LastValue
		fam := s.Best(locality.DefaultThreshold)
		switch fam {
		case "stride":
			rate = s.Stride
		case "context":
			rate = s.Context
		case "addr-last-value":
			rate = s.AddrLastValue
		}
		r.Audit = append(r.Audit, AuditRow{PC: s.PC, Execs: s.Count, Family: fam, Rate: rate})
	}

	// Performance.
	chase, err := workload.PointerChase(64, 8, false)
	if err != nil {
		return nil, err
	}
	sp, err := workload.Speedup(chase, workload.LVPByAddr(2), cfg.Seed)
	if err != nil {
		return nil, err
	}
	r.Perf = append(r.Perf, PerfResult{
		Kernel: sp.Kernel, BaseIPC: sp.Base.IPC, VPIPC: sp.VP.IPC, Speedup: sp.Speedup,
	})
	return r, nil
}

func toCell(c attacks.CaseResult) AttackCell {
	return AttackCell{
		Category:  string(c.Category),
		Channel:   c.Channel.String(),
		Predictor: string(c.Opt.Predictor),
		P:         c.P,
		Effective: c.Effective(),
		RateKbps:  c.RateBps / 1000,
		Success:   c.SuccessRate,
	}
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Markdown renders the report as a Markdown document.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Value Predictor Security — reproduction report\n\n")
	fmt.Fprintf(&b, "Generated %s; predictor %s; %d runs per attack case.\n\n",
		r.GeneratedAt.Format(time.RFC3339), r.Config.Predictor, r.Config.Runs)

	fmt.Fprintf(&b, "## Attack model (Tables I/II)\n\n")
	fmt.Fprintf(&b, "%d candidate patterns reduce to %d effective variants:\n\n", r.PatternsTotal, len(r.Variants))
	for _, v := range r.Variants {
		fmt.Fprintf(&b, "- `%s`\n", v)
	}

	fmt.Fprintf(&b, "\n## Table III\n\n| category | channel | predictor | p | effective | rate (Kbps) |\n|---|---|---|---|---|---|\n")
	for _, c := range r.TableIII {
		fmt.Fprintf(&b, "| %s | %s | %s | %.4f | %v | %.2f |\n",
			c.Category, c.Channel, c.Predictor, c.P, c.Effective, c.RateKbps)
	}

	fmt.Fprintf(&b, "\n## Volatile channel\n\n| category | predictor | p | effective |\n|---|---|---|---|\n")
	for _, c := range r.Volatile {
		fmt.Fprintf(&b, "| %s | %s | %.4f | %v |\n", c.Category, c.Predictor, c.P, c.Effective)
	}

	fmt.Fprintf(&b, "\n## Table II rows (all twelve, timing-window)\n\n| pattern | p | effective | success |\n|---|---|---|---|\n")
	for _, c := range r.RowResults {
		fmt.Fprintf(&b, "| %s | %.4f | %v | %.2f |\n", c.Category, c.P, c.Effective, c.Success)
	}

	if len(r.Sweeps) > 0 {
		fmt.Fprintf(&b, "\n## R-type window sweeps (Sec. VI-B)\n\n")
		fmt.Fprintf(&b, "Minimal secure windows: Train+Test %d (paper: 3), Test+Hit %d (paper: 9).\n\n",
			r.MinWindowTrainTest, r.MinWindowTestHit)
		fmt.Fprintf(&b, "| category | window | p | secure |\n|---|---|---|---|\n")
		for _, s := range r.Sweeps {
			fmt.Fprintf(&b, "| %s | %d | %.4f | %v |\n", s.Category, s.Window, s.P, s.Secure)
		}
	}
	if len(r.DefenseMatrix) > 0 {
		fmt.Fprintf(&b, "\n## Defense matrix\n\nCombined A+R+D defends all attacks: %v\n\n", r.CombinedDefends)
		fmt.Fprintf(&b, "| category | channel | strategy | p | defended | slowdown |\n|---|---|---|---|---|---|\n")
		for _, c := range r.DefenseMatrix {
			slow := "—"
			if c.Slowdown > 0 {
				slow = fmt.Sprintf("%.2fx", c.Slowdown)
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %.4f | %v | %s |\n", c.Category, c.Channel, c.Strategy, c.P, c.Defended, slow)
		}

		// Security vs slowdown: one row per strategy, cells defended
		// against mean cost over the undefended baseline.
		fmt.Fprintf(&b, "\n### Security vs slowdown\n\n| strategy | defended | mean slowdown |\n|---|---|---|\n")
		for _, s := range defense.Summarize(r.DefenseMatrix) {
			slow := "—"
			if s.Slowdown > 0 {
				slow = fmt.Sprintf("%.2fx", s.Slowdown)
			}
			fmt.Fprintf(&b, "| %s | %d/%d | %s |\n", s.Strategy, s.Defended, s.Cells, slow)
		}
	}

	if len(r.Ablations) > 0 {
		fmt.Fprintf(&b, "\n## Ablations\n\n| experiment | p | effective | success |\n|---|---|---|---|\n")
		for _, c := range r.Ablations {
			fmt.Fprintf(&b, "| %s | %.4f | %v | %.2f |\n", c.Category, c.P, c.Effective, c.Success)
		}
	}

	if len(r.CacheMatrix) > 0 {
		fmt.Fprintf(&b, "\n## Cache vulnerability matrix (three-step model)\n\n")
		fmt.Fprintf(&b, "%d of %d benchmark cases vulnerable (Welch AND Mann-Whitney p < 0.05). Full family: `vpattack -scenario cachebench-matrix-full`.\n\n",
			r.CacheVulnerable, len(r.CacheMatrix))
		fmt.Fprintf(&b, "| pattern | attack | welch p | mw p | abs d | vulnerable |\n|---|---|---|---|---|---|\n")
		for _, c := range r.CacheMatrix {
			att := c.Attack
			if att == "" {
				att = "—"
			}
			fmt.Fprintf(&b, "| `%s` | %s | %.4f | %.4f | %.2f | %v |\n", c.Pattern, att, c.P, c.MWp, c.AbsD, c.Vulnerable)
		}
		if len(r.CacheFootnotes) > 0 {
			fmt.Fprintf(&b, "\nModel footnotes:\n\n")
			for _, f := range r.CacheFootnotes {
				fmt.Fprintf(&b, "- %s\n", f)
			}
		}
	}

	fmt.Fprintf(&b, "\n## RSA key recovery (Figs. 6/7)\n\n")
	fmt.Fprintf(&b, "- %d-bit exponent, per-bit success %.1f%% (paper: 95.7%%)\n", r.RSA.Bits, 100*r.RSA.BitSuccess)
	fmt.Fprintf(&b, "- exact recovery: %v; rate %.2f Kbps (paper: 9.65 Kbps); victim result correct: %v\n",
		r.RSA.Recovered, r.RSA.RateKbps, r.RSA.ResultOK)

	if len(r.Audit) > 0 {
		fmt.Fprintf(&b, "\n## RSA victim locality audit (attack surface)\n\n")
		fmt.Fprintf(&b, "| load pc | execs | best family | hit rate |\n|---|---|---|---|\n")
		for _, a := range r.Audit {
			fmt.Fprintf(&b, "| %d | %d | %s | %.2f |\n", a.PC, a.Execs, a.Family, a.Rate)
		}
	}

	fmt.Fprintf(&b, "\n## Performance\n\n| kernel | base IPC | VP IPC | speedup |\n|---|---|---|---|\n")
	for _, p := range r.Perf {
		fmt.Fprintf(&b, "| %s | %.3f | %.3f | %.2fx |\n", p.Kernel, p.BaseIPC, p.VPIPC, p.Speedup)
	}
	return b.String()
}
