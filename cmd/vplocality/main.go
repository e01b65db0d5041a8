// vplocality audits a program's load-value locality: for every static
// load it reports how predictable the dynamic value stream is under
// the last-value, stride and order-1 context predictor families, and
// which loads therefore form the program's value-predictor attack
// surface (a predictable load trains a VPS entry an attacker can
// probe; a secret-dependent one leaks — Secs. IV-V of the paper).
//
// Usage:
//
//	vplocality prog.vasm        # audit an assembled program
//	vplocality -rsa             # audit the paper's Fig. 6 RSA victim
//	vplocality -threshold 0.9 prog.vasm
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"vpsec/cmd/internal/scencli"
	"vpsec/internal/asm"
	"vpsec/internal/isa"
	"vpsec/internal/locality"
	"vpsec/internal/metrics"
	"vpsec/internal/rsa"
)

func main() {
	var (
		threshold = flag.Float64("threshold", locality.DefaultThreshold,
			"hit rate a family needs to count a load as predictable")
		rsaDemo = flag.Bool("rsa", false,
			"audit the built-in Fig. 6 RSA victim instead of a file")
		order = flag.Int("order", 1,
			"context-family history depth (order-k FCM)")
		asJSON = flag.Bool("json", false, "emit the report as JSON")

		metricsPath  = flag.String("metrics", "", "write a metrics snapshot to this file (.prom: Prometheus text; otherwise JSON)")
		manifestPath = flag.String("manifest", "", "write a run manifest (config, metrics) to this file")
	)
	flag.Parse()

	start := time.Now()
	prog, err := loadProgram(*rsaDemo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vplocality:", err)
		os.Exit(1)
	}
	r, err := locality.ProfileOpts(prog, locality.Options{ContextOrder: *order})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vplocality:", err)
		os.Exit(1)
	}
	if *metricsPath != "" || *manifestPath != "" {
		reg := metrics.NewRegistry()
		publishAudit(reg, r, *threshold)
		man := metrics.NewManifest("vplocality", 0)
		man.Program = prog.Name
		man.Config["threshold"] = strconv.FormatFloat(*threshold, 'g', -1, 64)
		man.Config["order"] = strconv.Itoa(*order)
		man.SimCycles = r.Steps
		if err := (scencli.Records{Metrics: *metricsPath, Manifest: *manifestPath}).Write(os.Stderr, reg, man, start); err != nil {
			fmt.Fprintln(os.Stderr, "vplocality:", err)
			os.Exit(1)
		}
	}
	if *asJSON {
		out, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "vplocality:", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(out, '\n'))
		return
	}
	fmt.Print(r.String())

	if *rsaDemo {
		fmt.Println()
		fmt.Println("Reading the table: the constant (1-distinct-value, last-value 1.00)")
		fmt.Println("pointer load is the 0-bit path's dummy — it trains the LVP and makes")
		fmt.Println("0-bit iterations fast. The 2-distinct-value load with last-value 0.00")
		fmt.Println("but high context is the 1-bit swap pointer: invisible to LVP/stride")
		fmt.Println("(that asymmetry IS the Fig. 7 leak), yet an FCM would capture it and")
		fmt.Println("neutralize the leak — run the internal/rsa FCM ablation to confirm.")
	}
	if s := r.Surface(*threshold); len(s) > 0 {
		fmt.Printf("\nattack surface at threshold %.2f (audit secret-dependence by hand):\n", *threshold)
		for _, l := range s {
			fmt.Printf("  pc %4d: %s (%d execs)\n", l.PC, l.Best(*threshold), l.Count)
		}
	}
}

// publishAudit maps the locality report onto the metrics registry: how
// big the program's load population is, how much of it clears the
// threshold (the attack surface), and the per-family hit-rate
// distributions across static loads.
func publishAudit(reg *metrics.Registry, r *locality.Report, threshold float64) {
	rateBounds := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1}
	reg.Counter("locality.steps", "retired instructions during the audit").Add(r.Steps)
	static := reg.Counter("locality.loads.static", "static loads profiled")
	dynamic := reg.Counter("locality.loads.dynamic", "dynamic load executions profiled")
	predictable := reg.Counter("locality.loads.predictable",
		"static loads with some family at or above the threshold (the attack surface)")
	fams := []struct {
		name string
		rate func(locality.PCStats) float64
	}{
		{"last_value", func(s locality.PCStats) float64 { return s.LastValue }},
		{"stride", func(s locality.PCStats) float64 { return s.Stride }},
		{"context", func(s locality.PCStats) float64 { return s.Context }},
		{"addr_last_value", func(s locality.PCStats) float64 { return s.AddrLastValue }},
	}
	for _, l := range r.Loads {
		static.Inc()
		dynamic.Add(uint64(l.Count))
		if l.Predictable(threshold) {
			predictable.Inc()
		}
		for _, f := range fams {
			reg.Histogram("locality.hit_rate."+f.name,
				"per-static-load "+f.name+" hit rate", rateBounds).Observe(f.rate(l))
		}
	}
	reg.Gauge("locality.threshold", "predictability threshold the audit used").Set(threshold)
}

func loadProgram(rsaDemo bool) (*isa.Program, error) {
	if rsaDemo {
		return rsa.BuildVictim(rsa.PaperVictim(24))
	}
	if flag.NArg() != 1 {
		return nil, fmt.Errorf("usage: vplocality [flags] prog.vasm (or -rsa)")
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return nil, err
	}
	return asm.Assemble(flag.Arg(0), string(src))
}
