package scenario

import (
	"fmt"
	"io"
	"os"

	"vpsec/internal/attacks"
	"vpsec/internal/cachebench"
	"vpsec/internal/core"
	"vpsec/internal/defense"
	"vpsec/internal/stats"
)

// RenderOptions select the text form of Render. Zero value: the ASCII
// rendering every CLI default uses.
type RenderOptions struct {
	// CSV emits CSV series instead of ASCII histograms (figure kinds).
	CSV bool
	// SVGPrefix, when non-empty, additionally writes SVG panels to
	// files named <prefix>-panelN.svg (figure kinds).
	SVGPrefix string
}

// Render writes the result in the exact text format the legacy CLI
// front-ends printed, so `-scenario` output is byte-identical to the
// flag paths it replaces.
func (r *Result) Render(w io.Writer, opts RenderOptions) error {
	switch r.Spec.Kind {
	case KindCase, KindEviction, KindSMT:
		renderCase(w, r.Case())
	case KindVariant:
		v, err := attacks.FindVariant(r.Spec.Variant)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "pattern   : %s\n", v.Pattern)
		renderCase(w, r.Case())
	case KindTableIII:
		renderTableIII(w, r.Opt, r.Table3)
	case KindFigure:
		return r.renderFigure(w, opts)
	case KindNoiseSweep:
		fmt.Fprintf(w, "noise robustness of %s (%s):\n", r.Spec.Category, r.Opt.Channel)
		fmt.Fprintf(w, "%10s  %8s  %8s\n", "jitter", "p", "success")
		for _, p := range r.Noise {
			fmt.Fprintf(w, "%10d  %8.4f  %7.1f%%\n", p.MemJitter, p.P, p.Success*100)
		}
	case KindConfSweep:
		fmt.Fprintf(w, "confidence-threshold sweep of %s (%s):\n", r.Spec.Category, r.Opt.Channel)
		fmt.Fprintf(w, "%10s  %8s  %10s\n", "confidence", "p", "rate")
		for _, p := range r.Conf {
			fmt.Fprintf(w, "%10d  %8.4f  %7.2f Kbps\n", p.Confidence, p.P, p.RateBps/1000)
		}
	case KindDefenseSweep:
		for _, sw := range r.Sweeps {
			fmt.Fprintf(w, "R-type window sweep for %s (timing-window channel):\n", sw.Category)
			for _, p := range sw.Points {
				state := "secure"
				if p.Effective() {
					state = "ATTACK EFFECTIVE"
				}
				fmt.Fprintf(w, "  window %2d: p=%.4f success=%.2f  %s\n", p.Window, p.P, p.SuccessRate, state)
			}
			fmt.Fprintf(w, "  minimal secure window: %d\n\n", sw.MinWindow)
		}
	case KindDefenseMatrix:
		fmt.Fprintln(w, "Defense matrix (p-values; 'def' = attack prevented):")
		var lastKey string
		for _, c := range r.Matrix {
			key := fmt.Sprintf("%s / %s", c.Category, c.Channel)
			if key != lastKey {
				fmt.Fprintf(w, "\n%s:\n", key)
				lastKey = key
			}
			state := "LEAKS"
			if c.Defended {
				state = "def"
			}
			if r.Spec.Slowdown && c.Slowdown > 0 {
				fmt.Fprintf(w, "  %-10s p=%.4f  %-5s x%.2f\n", c.Strategy, c.P, state, c.Slowdown)
			} else {
				fmt.Fprintf(w, "  %-10s p=%.4f  %s\n", c.Strategy, c.P, state)
			}
		}
		fmt.Fprintln(w)
		if r.Spec.Slowdown {
			renderSlowdownCurve(w, r.Matrix)
		}
		if r.MatrixAllDefended {
			fmt.Fprintln(w, "Combined A+R+D defends every attack (Sec. VI-B claim holds).")
		} else {
			fmt.Fprintln(w, "WARNING: combined A+R+D left an attack effective.")
		}
	case KindCacheBench:
		if r.CacheBench == nil || len(r.CacheBench.Cases) == 0 {
			return fmt.Errorf("scenario: cachebench result has no case")
		}
		cachebench.RenderCase(w, r.CacheBench.Cases[0])
	case KindCacheMatrix:
		if r.CacheBench == nil {
			return fmt.Errorf("scenario: cachebench-matrix result has no matrix")
		}
		cachebench.RenderMatrix(w, r.CacheBench)
	case KindSim:
		s := r.Sim
		fmt.Fprintf(w, "program   : %s (%d instructions)\n", s.Program, s.Instructions)
		fmt.Fprintf(w, "cycles    : %d\n", s.Run.Cycles)
		fmt.Fprintf(w, "retired   : %d (IPC %.2f)\n", s.Run.Retired, s.Run.IPC())
		fmt.Fprintf(w, "loads     : %d misses, %d store-forwards\n", s.Run.LoadMisses, s.Run.Forwards)
		fmt.Fprintf(w, "value pred: %d made, %d correct, %d wrong (squashes), %d below confidence\n",
			s.Run.Predictions, s.Run.VerifyCorrect, s.Run.VerifyWrong, s.Run.NoPredictions)
		fmt.Fprintf(w, "branches  : %d direction-mispredict squashes\n", s.Run.BranchSquash)
	default:
		return fmt.Errorf("scenario: kind %q has no renderer", r.Spec.Kind)
	}
	return nil
}

// renderSlowdownCurve prints the security-vs-slowdown summary of a
// matrix computed with per-trial cycle counts (Spec.Slowdown): one row
// per strategy, in matrix order, with the cells it defends and its
// mean slowdown over the undefended baseline.
func renderSlowdownCurve(w io.Writer, cells []defense.MatrixCell) {
	fmt.Fprintln(w, "Security vs slowdown (per strategy, over all cells):")
	fmt.Fprintf(w, "  %-12s %9s  %8s\n", "strategy", "defended", "slowdown")
	for _, s := range defense.Summarize(cells) {
		slow := "—"
		if s.Slowdown > 0 {
			slow = fmt.Sprintf("x%.2f", s.Slowdown)
		}
		fmt.Fprintf(w, "  %-12s %5d/%-3d  %8s\n", s.Strategy, s.Defended, s.Cells, slow)
	}
	fmt.Fprintln(w)
}

// renderCase is the per-cell report every single-case kind prints
// (formerly vpattack's printCase).
func renderCase(w io.Writer, r attacks.CaseResult) {
	mm := stats.Summarize(r.Mapped)
	mu := stats.Summarize(r.Unmapped)
	verdict := "NOT effective (p >= 0.05)"
	if r.Effective() {
		verdict = "EFFECTIVE (p < 0.05)"
	}
	fmt.Fprintf(w, "attack    : %s over the %s channel\n", r.Category, r.Channel)
	fmt.Fprintf(w, "predictor : %s", r.Opt.Predictor)
	if r.Opt.Defense.Active() {
		fmt.Fprintf(w, "  defense %s", r.Opt.Defense)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "mapped    : %.1f ± %.1f cycles (%d runs)\n", mm.Mean, mm.StdDev(), mm.N)
	fmt.Fprintf(w, "unmapped  : %.1f ± %.1f cycles (%d runs)\n", mu.Mean, mu.StdDev(), mu.N)
	fmt.Fprintf(w, "p-value   : %.4f  -> %s\n", r.P, verdict)
	fmt.Fprintf(w, "success   : %.1f%% per-bit classification\n", 100*r.SuccessRate)
	fmt.Fprintf(w, "tran. rate: %.2f Kbps (modeled at %.1f GHz, %gk-cycle sync epochs)\n",
		r.RateBps/1000, r.Opt.ClockHz/1e9, r.Opt.SyncEpoch/1000)
}

// renderTableIII is the Table III report (formerly vpattack's
// printTableIII, minus the evaluation it now receives pre-computed).
func renderTableIII(w io.Writer, opt attacks.Options, rows []attacks.TableIIIRow) {
	fmt.Fprintf(w, "Table III: attack evaluation, predictor = %s, %d runs per case\n\n", opt.Predictor, opt.Runs)
	fmt.Fprintf(w, "%-14s | %-28s | %-28s\n", "", "Timing-Window Channel", "Persistent Channel")
	fmt.Fprintf(w, "%-14s | %-8s  %-18s | %-8s  %-18s\n", "Attack Category", "No VP", "VP (Tran. Rate)", "No VP", "VP (Tran. Rate)")
	for _, row := range rows {
		tw := fmt.Sprintf("%.4f", row.TWNoVP.P)
		twVP := fmt.Sprintf("%.4f (%.2fKbps)", row.TWVP.P, row.TWVP.RateBps/1000)
		pers, persVP := "—", "—"
		if row.HasPersistent {
			pers = fmt.Sprintf("%.4f", row.PersNoVP.P)
			persVP = fmt.Sprintf("%.4f (%.2fKbps)", row.PersVP.P, row.PersVP.RateBps/1000)
		}
		fmt.Fprintf(w, "%-14s | %-8s  %-18s | %-8s  %-18s\n", row.Category, tw, twVP, pers, persVP)
	}
	fmt.Fprintln(w, "\np < 0.05 means the attack is effective (red in the paper).")
}

// renderFigure is the four-panel Fig. 5 / Fig. 8 report (formerly
// vpfigures' distributionFigure, minus the evaluation).
func (r *Result) renderFigure(w io.Writer, opts RenderOptions) error {
	cat, err := parseCategory(r.Spec.Category)
	if err != nil {
		return err
	}
	figName := "Fig. 5 (Train + Test)"
	labels := []string{"mapped index", "unmapped index"}
	if cat == core.TestHit {
		figName = "Fig. 8 (Test + Hit)"
		labels = []string{"mapped data", "unmapped data"}
	}
	fmt.Fprintf(w, "%s: timing distributions over %d runs per case\n\n", figName, r.Opt.Runs)
	for i, cr := range r.Cases {
		panel := i + 1
		verdict := "attack NOT effective"
		if cr.Effective() {
			verdict = "attack EFFECTIVE"
		}
		vpName := "no VP"
		if cr.Opt.Predictor != attacks.NoVP {
			vpName = predictorTitle(cr.Opt.Predictor)
		}
		fmt.Fprintf(w, "(%d) %s Channel (%s): pvalue=%.4f  [%s]\n", panel, channelTitle(cr.Channel), vpName, cr.P, verdict)
		hm, hu, err := cr.Histograms(25)
		if err != nil {
			return err
		}
		if opts.SVGPrefix != "" {
			title := fmt.Sprintf("%s Channel (%s): p=%.4f", channelTitle(cr.Channel), vpName, cr.P)
			doc := stats.HistogramSVG(hm, hu, title, labels[0], labels[1])
			name := fmt.Sprintf("%s-panel%d.svg", opts.SVGPrefix, panel)
			if err := os.WriteFile(name, []byte(doc), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", name)
		}
		if opts.CSV {
			fmt.Fprint(w, stats.CSV(hm, hu))
		} else {
			fmt.Fprint(w, stats.RenderASCII(hm, hu, labels[0]+" (#)", labels[1]+" (*)", 30))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func channelTitle(ch core.Channel) string {
	if ch == core.TimingWindow {
		return "Timing-Window"
	}
	return "Persistent"
}

// predictorTitle renders the VP panel label: the legacy figures
// hardcoded "LVP"; other kinds uppercase the same way.
func predictorTitle(pk attacks.PredictorKind) string {
	switch pk {
	case attacks.LVP:
		return "LVP"
	case attacks.VTAGE:
		return "VTAGE"
	case attacks.FCM:
		return "FCM"
	}
	return string(pk)
}
