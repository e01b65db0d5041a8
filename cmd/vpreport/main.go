// Command vpreport runs the entire reproduction — attack model,
// Table III, volatile channel, defense sweeps and matrix, RSA key
// recovery, performance ablation — and emits a Markdown report (or
// JSON with -json). A full run with the paper's 100 trials per case
// takes a few minutes; -quick trims it for smoke checks. Every attack
// and defense section is dispatched through internal/scenario, and
// `vpreport -scenario <name|file>` runs one such spec on its own.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"vpsec/cmd/internal/scencli"
	"vpsec/internal/attacks"
	"vpsec/internal/report"
	"vpsec/internal/scenario"
)

var command = scencli.Command{Name: "vpreport", Flags: flags}

func main() {
	os.Exit(scencli.Main(command, os.Args[1:], os.Stdout, os.Stderr))
}

// flags registers vpreport's flags; the full report is a mode without
// a spec of its own.
func flags(fs *flag.FlagSet, _ *scencli.Env) scencli.Plan {
	defaults := scenario.Defaults()
	var (
		runs    = fs.Int("runs", defaults.Runs, "trials per attack case")
		defRuns = fs.Int("defense-runs", scenario.DefaultDefenseRuns(), "trials per defense cell")
		seed    = fs.Int64("seed", defaults.Seed, "base RNG seed")
		pred    = fs.String("predictor", defaults.Predictor, "predictor under attack: lvp, vtage, stride")
		quick   = fs.Bool("quick", false, "skip the defense sweeps and matrix")
		asJSON  = fs.Bool("json", false, "emit JSON instead of Markdown")
		outFile = fs.String("o", "", "write to a file instead of stdout")
	)
	return func(env *scencli.Env) ([]scenario.Spec, error) {
		cfg := report.Config{
			Runs:        *runs,
			DefenseRuns: *defRuns,
			Seed:        *seed,
			Predictor:   attacks.PredictorKind(*pred),
			Quick:       *quick,
			Jobs:        env.Jobs,
			Trace:       env.Trace,
			Metrics:     env.Metrics,
		}
		r, err := report.Generate(context.Background(), cfg, time.Now())
		if err != nil {
			return nil, err
		}
		man := env.Manifest
		man.Seed, man.Predictor = *seed, *pred
		man.Config["runs"] = fmt.Sprint(*runs)
		man.Config["defense-runs"] = fmt.Sprint(*defRuns)
		man.Config["quick"] = fmt.Sprint(*quick)
		man.Config["jobs"] = fmt.Sprint(env.Jobs)

		var out []byte
		if *asJSON {
			if out, err = r.JSON(); err != nil {
				return nil, err
			}
			out = append(out, '\n')
		} else {
			out = []byte(r.Markdown())
		}
		if *outFile == "" {
			_, err := env.Stdout.Write(out)
			return nil, err
		}
		if err := os.WriteFile(*outFile, out, 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(env.Stderr, "vpreport: wrote %s (%d bytes)\n", *outFile, len(out))
		return nil, nil
	}
}
