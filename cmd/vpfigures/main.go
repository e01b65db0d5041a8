// Command vpfigures regenerates the paper's evaluation figures as
// ASCII plots and CSV series. The distribution figures (5 and 8) are
// declarative scenarios executed through internal/scenario; Fig. 7 is
// the RSA end-to-end demo.
//
//	vpfigures -fig 5        # Train+Test timing distributions (4 panels)
//	vpfigures -fig 7        # RSA e_bit iteration timing sequence
//	vpfigures -fig 8        # Test+Hit timing distributions (4 panels)
//	vpfigures -fig 5 -csv   # emit CSV instead of ASCII
//	vpfigures -scenario fig8
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"vpsec/cmd/internal/scencli"
	"vpsec/internal/core"
	"vpsec/internal/rsa"
	"vpsec/internal/scenario"
	"vpsec/internal/stats"
)

var command = scencli.Command{Name: "vpfigures", Flags: flags, Compose: []string{"csv", "svg"}}

func main() {
	os.Exit(scencli.Main(command, os.Args[1:], os.Stdout, os.Stderr))
}

// flags registers vpfigures' flags. -csv and -svg bind into the render
// options, so they also shape a -scenario figure.
func flags(fs *flag.FlagSet, env *scencli.Env) scencli.Plan {
	defaults := scenario.Defaults()
	var (
		fig  = fs.Int("fig", 5, "figure to regenerate: 5, 7 or 8")
		runs = fs.Int("runs", defaults.Runs, "trials per case (paper: 100)")
		seed = fs.Int64("seed", defaults.Seed, "RNG seed")
	)
	fs.BoolVar(&env.Render.CSV, "csv", false, "emit CSV series instead of ASCII plots")
	fs.StringVar(&env.Render.SVGPrefix, "svg", "", "write SVG panels to files with this prefix (e.g. -svg fig5)")
	return func(env *scencli.Env) ([]scenario.Spec, error) {
		switch *fig {
		case 5, 8:
			cat := core.TrainTest
			if *fig == 8 {
				cat = core.TestHit
			}
			return []scenario.Spec{{Kind: scenario.KindFigure, Category: string(cat), Runs: *runs, Seed: *seed}}, nil
		case 7:
			env.Manifest.Seed = *seed
			return nil, rsaFigure(env.Stdout, *seed, env.Render)
		default:
			return nil, fmt.Errorf("unknown figure %d (supported: 5, 7, 8)", *fig)
		}
	}
}

// rsaFigure renders Fig. 7: the receiver's per-iteration observation of
// the modular-exponentiation victim, labeled with the true e_bit.
func rsaFigure(w io.Writer, seed int64, render scenario.RenderOptions) error {
	res, err := rsa.Attack(context.Background(), rsa.PaperVictim(51), rsa.AttackOptions{Seed: seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig. 7: receiver's observation per modexp iteration (e_bit known)\n")
	fmt.Fprintf(w, "recovered %d/%d bits correctly (%.1f%%; paper: 95.7%%), rate %.2f Kbps (paper: 9.65 Kbps)\n",
		int(res.BitSuccess*float64(res.Bits)+0.5), res.Bits, 100*res.BitSuccess, res.RateBps/1000)
	fmt.Fprintf(w, "victim result correct: %v; classifier threshold %.0f cycles\n\n", res.ResultOK, res.Threshold)
	if render.SVGPrefix != "" {
		var pts []stats.SeriesPoint
		for _, o := range res.Series {
			pts = append(pts, stats.SeriesPoint{X: float64(o.Iter), Y: o.Cycles, Label: int(o.EBit)})
		}
		doc := stats.ScatterSVG(pts, "Receiver observation per modexp iteration", "e_bit=0", "e_bit=1")
		name := render.SVGPrefix + ".svg"
		if err := os.WriteFile(name, []byte(doc), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", name)
	}
	if render.CSV {
		fmt.Fprintln(w, "iter,cycles,e_bit")
		for _, o := range res.Series {
			fmt.Fprintf(w, "%d,%.0f,%d\n", o.Iter, o.Cycles, o.EBit)
		}
		return nil
	}
	lo, hi := res.Series[0].Cycles, res.Series[0].Cycles
	for _, o := range res.Series {
		if o.Cycles < lo {
			lo = o.Cycles
		}
		if o.Cycles > hi {
			hi = o.Cycles
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	for _, o := range res.Series {
		pos := int((o.Cycles - lo) / span * 40)
		bar := make([]byte, 42)
		for i := range bar {
			bar[i] = ' '
		}
		mark := byte('o') // e_bit = 0
		if o.EBit == 1 {
			mark = '*'
		}
		bar[pos+1] = mark
		fmt.Fprintf(w, "iter %2d %s %5.0f cycles (e_bit=%d)\n", o.Iter, string(bar), o.Cycles, o.EBit)
	}
	fmt.Fprintln(w, "\n  o = e_bit 0 (value-predicted pointer load, fast)")
	fmt.Fprintln(w, "  * = e_bit 1 (pointer swap defeats the predictor, slow)")
	return nil
}
