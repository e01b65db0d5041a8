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
	"vpsec/internal/metrics"
	"vpsec/internal/report"
	"vpsec/internal/scenario"
)

func main() {
	defaults := scenario.Defaults()
	var (
		runs    = flag.Int("runs", defaults.Runs, "trials per attack case")
		defRuns = flag.Int("defense-runs", scenario.DefaultDefenseRuns(), "trials per defense cell")
		seed    = flag.Int64("seed", defaults.Seed, "base RNG seed")
		pred    = flag.String("predictor", defaults.Predictor, "predictor under attack: lvp, vtage, stride")
		quick   = flag.Bool("quick", false, "skip the defense sweeps and matrix")
		jobs    = flag.Int("jobs", scenario.DefaultJobs(), "concurrent trials per evaluation (1 = sequential legacy path; results are identical at any value)")
		asJSON  = flag.Bool("json", false, "emit JSON instead of Markdown")
		outFile = flag.String("o", "", "write to a file instead of stdout")

		metricsPath  = flag.String("metrics", "", "write a metrics snapshot (JSON) to this file")
		manifestPath = flag.String("manifest", "", "write a run manifest (config, seed, metrics) to this file")
	)
	scen := scencli.Register()
	flag.Parse()

	tracer, closeTrace, err := scen.Observe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpreport:", err)
		os.Exit(1)
	}
	defer func() {
		if err := closeTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "vpreport:", err)
		}
	}()

	var reg *metrics.Registry
	if *metricsPath != "" || *manifestPath != "" {
		reg = metrics.NewRegistry()
	}
	start := time.Now()
	// writeObservability emits the metrics snapshot and the manifest
	// man (already filled in) on the way out of a successful run.
	writeObservability := func(man *metrics.Manifest) {
		if *metricsPath != "" {
			if err := metrics.WriteFile(reg, *metricsPath, "json"); err != nil {
				fmt.Fprintln(os.Stderr, "vpreport:", err)
				os.Exit(1)
			}
		}
		if *manifestPath != "" {
			man.Finish(reg, start)
			if err := man.WriteFile(*manifestPath); err != nil {
				fmt.Fprintln(os.Stderr, "vpreport:", err)
				os.Exit(1)
			}
		}
	}

	res, handled, err := scen.Handle(context.Background(), scencli.Options{
		Tool:  "vpreport",
		Infra: []string{"jobs", "metrics", "manifest"},
		Trace: tracer,
		Mutate: func(s *scenario.Spec) {
			if scencli.Set("jobs") {
				s.Jobs = *jobs
			}
			s.Metrics = reg
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpreport:", err)
		os.Exit(1)
	}
	if handled {
		if res != nil {
			man := metrics.NewManifest("vpreport", res.Spec.Seed)
			man.Predictor = res.Spec.Predictor
			man.Config["scenario"] = res.Spec.Name
			man.Config["jobs"] = fmt.Sprint(res.Spec.Jobs)
			writeObservability(man)
		}
		return
	}

	cfg := report.Config{
		Runs:        *runs,
		DefenseRuns: *defRuns,
		Seed:        *seed,
		Predictor:   attacks.PredictorKind(*pred),
		Quick:       *quick,
		Jobs:        *jobs,
		Trace:       tracer,
		Metrics:     reg,
	}
	r, err := report.Generate(context.Background(), cfg, start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpreport:", err)
		os.Exit(1)
	}
	man := metrics.NewManifest("vpreport", *seed)
	man.Predictor = *pred
	man.Config["runs"] = fmt.Sprint(*runs)
	man.Config["defense-runs"] = fmt.Sprint(*defRuns)
	man.Config["quick"] = fmt.Sprint(*quick)
	man.Config["jobs"] = fmt.Sprint(*jobs)
	writeObservability(man)

	var out []byte
	if *asJSON {
		out, err = r.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpreport:", err)
			os.Exit(1)
		}
		out = append(out, '\n')
	} else {
		out = []byte(r.Markdown())
	}
	if *outFile == "" {
		os.Stdout.Write(out)
		return
	}
	if err := os.WriteFile(*outFile, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "vpreport:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "vpreport: wrote %s (%d bytes)\n", *outFile, len(out))
}
