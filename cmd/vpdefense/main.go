// Command vpdefense reproduces the Sec. VI defense evaluation: R-type
// window-size sweeps (minimal secure windows: 3 for Train+Test, 9 for
// Test+Hit) and the per-attack defense-coverage matrix. Both modes
// compile to internal/scenario specs and run through the shared
// front-end (cmd/internal/scencli).
//
//	vpdefense -sweep                 # window sweeps for Train+Test and Test+Hit
//	vpdefense -matrix                # full strategy x attack matrix
//	vpdefense -matrix -slowdown      # extended matrix, priced by slowdown
//	vpdefense -sweep -attack "Fill Up" -maxwindow 6
//	vpdefense -scenario defense-window-test-hit
//	vpdefense -list-strategies       # mechanism catalog and named strategies
//	vpdefense -describe-strategy "A+R(5)+recompute"
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vpsec/cmd/internal/scencli"
	"vpsec/internal/attacks"
	"vpsec/internal/defense"
	"vpsec/internal/scenario"
)

var command = scencli.Command{Name: "vpdefense", Flags: flags}

func main() {
	os.Exit(scencli.Main(command, os.Args[1:], os.Stdout, os.Stderr))
}

// flags registers vpdefense's flags: the sweep and matrix compile to
// specs, the strategy catalog prints without one.
func flags(fs *flag.FlagSet, _ *scencli.Env) scencli.Plan {
	var (
		doSweep    = fs.Bool("sweep", false, "run R-type window sweeps")
		doMatrix   = fs.Bool("matrix", false, "run the defense matrix")
		slowdown   = fs.Bool("slowdown", false, "extend the matrix with recompute/isolate and price every strategy by its slowdown")
		attackName = fs.String("attack", "", "restrict the sweep to one category")
		maxWindow  = fs.Int("maxwindow", 10, "largest R-type window to sweep")
		runs       = fs.Int("runs", scenario.DefaultDefenseRuns(), "trials per case")
		seed       = fs.Int64("seed", scenario.Defaults().Seed, "base RNG seed")

		listStrategies = fs.Bool("list-strategies", false, "print the mechanism catalog and named strategies, then exit")
		describe       = fs.String("describe-strategy", "", "print the mechanisms a strategy composes, then exit")
	)
	return func(env *scencli.Env) ([]scenario.Spec, error) {
		if *listStrategies {
			printStrategies(env.Stdout)
			return nil, nil
		}
		if *describe != "" {
			return nil, describeStrategy(env.Stdout, *describe)
		}
		var specs []scenario.Spec
		if *doSweep || !*doMatrix {
			specs = append(specs, scenario.Spec{
				Kind:      scenario.KindDefenseSweep,
				Category:  *attackName, // empty: the paper's Train+Test and Test+Hit pair
				MaxWindow: *maxWindow,
			})
		}
		if *doMatrix || !*doSweep {
			spec := scenario.Spec{Kind: scenario.KindDefenseMatrix}
			if *slowdown {
				spec.Slowdown = true
				spec.Strategies = defense.CatalogNames()
			}
			specs = append(specs, spec)
		}
		for i := range specs {
			specs[i].Runs, specs[i].Seed = *runs, *seed
		}
		return specs, nil
	}
}

// printStrategies renders the mechanism catalog and the named
// strategy tables.
func printStrategies(w io.Writer) {
	fmt.Fprintln(w, "Mechanisms (compose with '+', e.g. -describe-strategy \"A+R(5)+recompute\"):")
	for _, d := range attacks.Mechanisms() {
		tok := d.Token
		if d.TakesArg {
			tok += "(w)"
		}
		printMechanism(w, tok, d.Build(0), d.Summary)
	}
	fmt.Fprintln(w, "\nNamed strategies (Sec. VI-B catalog):")
	for _, s := range defense.Strategies() {
		fmt.Fprintf(w, "  %-10s stack: %s\n", s.Name, s.Stack)
	}
	fmt.Fprintln(w, "\nExtended strategies (post-paper mechanism classes):")
	for _, s := range defense.ExtendedStrategies() {
		fmt.Fprintf(w, "  %-10s stack: %s\n", s.Name, s.Stack)
	}
}

// describeStrategy resolves a strategy name or stack string and prints
// the mechanisms it composes, in application order.
func describeStrategy(w io.Writer, name string) error {
	s, err := defense.StrategyNamed(name)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "strategy %s\n", s.Name)
	fmt.Fprintf(w, "  stack: %s\n", s.Stack)
	if len(s.Stack) == 0 {
		fmt.Fprintln(w, "  no mechanisms (undefended baseline)")
		return nil
	}
	for _, m := range s.Stack {
		base, _, _ := strings.Cut(m.DefenseName(), "(")
		d, _ := attacks.MechanismFor(base)
		printMechanism(w, m.DefenseName(), m, d.Summary)
	}
	return nil
}

// printMechanism renders one catalog line: the token, the hook classes
// the mechanism engages, and its summary.
func printMechanism(w io.Writer, token string, m attacks.Mechanism, summary string) {
	fmt.Fprintf(w, "  %-10s %-18s %s\n", token, "["+attacks.HookClasses(m)+"]", summary)
}
