// Command vpmodel prints the paper's attack model: the step actions of
// Table I, the 576-pattern reduction to the 12 effective attack
// variants of Table II (with the rule-by-rule rejection accounting the
// paper omitted for space), and the timing-channel taxonomy of Fig. 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"vpsec/cmd/internal/scencli"
	"vpsec/internal/core"
	"vpsec/internal/metrics"
)

func main() {
	table := flag.Int("table", 0, "print only one table: 1 (actions) or 2 (variants); 0 prints everything")
	metricsPath := flag.String("metrics", "", "write a metrics snapshot to this file (.prom: Prometheus text; otherwise JSON)")
	manifestPath := flag.String("manifest", "", "write a run manifest (config, metrics) to this file")
	flag.Parse()

	start := time.Now()
	if *table == 0 || *table == 1 {
		printTableI()
	}
	if *table == 0 || *table == 2 {
		printTableII()
	}
	if *table == 0 {
		printRules()
		printTaxonomy()
	}

	if *metricsPath != "" || *manifestPath != "" {
		reg := metrics.NewRegistry()
		publishModel(reg)
		man := metrics.NewManifest("vpmodel", 0)
		man.Config["table"] = strconv.Itoa(*table)
		if err := (scencli.Records{Metrics: *metricsPath, Manifest: *manifestPath}).Write(os.Stderr, reg, man, start); err != nil {
			fmt.Fprintln(os.Stderr, "vpmodel:", err)
			os.Exit(1)
		}
	}
}

// ruleScope turns a reduction-rule name ("train before trigger") into a
// metrics scope segment.
func ruleScope(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return strings.Trim(b.String(), "-")
}

// publishModel records the Table II reduction accounting as counters:
// the candidate-pattern population, the effective variants, and the
// per-rule rejection counts.
func publishModel(reg *metrics.Registry) {
	reg.Counter("model.patterns.total", "candidate attack patterns enumerated").
		Add(uint64(len(core.AllPatterns())))
	reg.Counter("model.variants.effective", "effective attack variants surviving reduction (Table II)").
		Add(uint64(len(core.Reduce())))
	reg.Counter("model.categories", "attack categories").
		Add(uint64(len(core.Categories())))
	hist := core.RejectionHistogram()
	for _, r := range core.Rules() {
		reg.Counter("model.rejected."+ruleScope(r.Name), "patterns rejected by rule: "+r.Name).
			Add(uint64(hist[r.Name]))
	}
}

func printTableI() {
	fmt.Println("Table I: possible actions for each step of value predictor attacks")
	fmt.Println()
	desc := core.ActionDescriptions()
	for _, a := range core.Actions() {
		fmt.Printf("  %-7s %s\n", a, desc[a.String()])
	}
	fmt.Printf("  %-7s %s\n", "—", desc["—"])
	fmt.Println()
}

func printTableII() {
	variants := core.Reduce()
	fmt.Printf("Table II: %d effective attacks out of %d candidate patterns\n", len(variants), len(core.AllPatterns()))
	fmt.Println()
	fmt.Printf("  %-22s %s\n", "train, modify, trigger", "category")
	for _, v := range variants {
		channels := ""
		for i, ch := range core.ChannelsFor(v.Category) {
			if i > 0 {
				channels += ", "
			}
			channels += ch.String()
		}
		fmt.Printf("  %-22s %-14s (%s)\n", v.Pattern, v.Category, channels)
	}
	fmt.Println()
}

func printRules() {
	fmt.Println("Reduction rules (the soundness accounting omitted from the paper):")
	fmt.Println()
	hist := core.RejectionHistogram()
	keys := make([]string, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, r := range core.Rules() {
		fmt.Printf("  %-24s rejects %3d patterns\n", r.Name, hist[r.Name])
		fmt.Printf("      %s\n", r.Why)
	}
	fmt.Printf("  %-24s %3d patterns survive\n", "(kept)", hist["(kept)"])
	fmt.Println()
}

func printTaxonomy() {
	fmt.Println("Fig. 2 taxonomy of timing-window channels:")
	fmt.Println()
	for _, e := range core.Taxonomy() {
		tag := ""
		if e.New {
			tag = "  [NEW in this work]"
		}
		fmt.Printf("  %s%s\n", e.Contrast, tag)
		if len(e.Examples) == 0 {
			fmt.Println("      (no known examples)")
		}
		for _, ex := range e.Examples {
			fmt.Printf("      %s\n", ex)
		}
	}
	fmt.Println()
	fmt.Println("Per-category contrast and channels:")
	for _, c := range core.Categories() {
		fmt.Printf("  %-14s %-40s", c, core.ContrastFor(c))
		for i, ch := range core.ChannelsFor(c) {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Print(ch)
		}
		fmt.Println()
	}
}
