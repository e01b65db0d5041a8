// Command vpattack runs the value-predictor attacks and reproduces the
// paper's evaluation numbers. Every invocation — legacy flags or a
// declarative scenario — compiles to an internal/scenario spec and
// runs through the shared front-end (cmd/internal/scencli), so the two
// paths cannot drift.
//
// Usage:
//
//	vpattack -table3                       # full Table III
//	vpattack -attack "Train + Test" -channel timing-window
//	vpattack -attack "Test + Hit" -predictor vtage -runs 100
//	vpattack -attack "Fill Up" -channel persistent -defense D
//	vpattack -scenario table3-lvp          # the same Table III, by name
//	vpattack -scenario specs/my-exp.json   # or from a spec file
//	vpattack -list                         # enumerate registered scenarios
package main

import (
	"flag"
	"os"

	"vpsec/cmd/internal/scencli"
	"vpsec/internal/scenario"
)

var command = scencli.Command{Name: "vpattack", Flags: flags}

func main() {
	os.Exit(scencli.Main(command, os.Args[1:], os.Stdout, os.Stderr))
}

// flags registers vpattack's experiment flags and compiles them into
// the equivalent spec.
func flags(fs *flag.FlagSet, _ *scencli.Env) scencli.Plan {
	defaults := scenario.Defaults()
	var (
		attackName = fs.String("attack", "", `attack category, e.g. "Train + Test" (see vpmodel)`)
		variant    = fs.String("variant", "", `specific Table II pattern, e.g. "R^KI, S^SI', R^KI"`)
		channel    = fs.String("channel", defaults.Channel, "channel: timing-window, persistent or volatile")
		predKind   = fs.String("predictor", defaults.Predictor, "none, lvp, vtage, stride, stride-2d, fcm, oracle-lvp, oracle-vtage")
		runs       = fs.Int("runs", defaults.Runs, "trials per case (paper: 100)")
		conf       = fs.Int("confidence", defaults.Confidence, "VPS confidence number")
		seed       = fs.Int64("seed", defaults.Seed, "base RNG seed")
		table3     = fs.Bool("table3", false, "reproduce Table III for the chosen predictor")
		stack      = fs.String("defense", "", `defense mechanism stack, e.g. "A+R(9)+D" (vpdefense -list-strategies lists the mechanisms)`)
		usePID     = fs.Bool("pid", false, "index the predictor with the pid (Sec. V-B ablation)")
		prefetch   = fs.Bool("prefetch", false, "enable the next-line prefetcher ablation")
		replay     = fs.Bool("replay", false, "selective-replay recovery instead of full squash")
		eviction   = fs.Bool("eviction", false, "force misses with eviction sets instead of CLFLUSH (Train+Test only)")
		fpc        = fs.Int("fpc", 0, "forward-probabilistic confidence rate 1/N for lvp/vtage (0 disables)")
		noiseSweep = fs.Bool("noise-sweep", false, "sweep memory-latency jitter for the chosen attack")
		confSweep  = fs.Bool("conf-sweep", false, "sweep VPS confidence thresholds for the chosen attack")
		trainIters = fs.Int("train-iters", 0, "training accesses per trial (0: the confidence number)")
	)
	return func(*scencli.Env) ([]scenario.Spec, error) {
		spec := scenario.Spec{
			Predictor:  *predKind,
			Confidence: *conf,
			Runs:       *runs,
			Seed:       *seed,
			UsePID:     *usePID,
			Prefetch:   *prefetch,
			Replay:     *replay,
			FPC:        *fpc,
			TrainIters: *trainIters,
		}
		if *stack != "" {
			spec.Defense = &scenario.DefenseSpec{Stack: *stack}
		}
		switch {
		case *table3:
			spec.Kind = scenario.KindTableIII
		case *eviction:
			spec.Kind = scenario.KindEviction
		case *variant != "":
			spec.Kind = scenario.KindVariant
			spec.Variant = *variant
		case *attackName == "":
			return nil, scencli.Usage("usage: vpattack -table3 | -attack <category> | -variant <pattern> | -scenario <name|file> [flags]")
		default:
			spec.Kind, spec.Category, spec.Channel = scenario.KindCase, *attackName, *channel
			if *noiseSweep {
				spec.Kind = scenario.KindNoiseSweep
			} else if *confSweep {
				spec.Kind = scenario.KindConfSweep
			}
		}
		return []scenario.Spec{spec}, nil
	}
}
