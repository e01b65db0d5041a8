// SMT spy demo: the volatile channel with an honest receiver. A
// sampler thread shares one SMT core with the victim and times only
// its own arithmetic windows; when the value predictor hands the
// victim's transient window an odd secret, a parity-gated instruction
// burst saturates the shared issue ports and the sampler's windows
// stretch — SMoTherSpectre, driven by a value predictor.
package main

import (
	"context"
	"fmt"
	"log"

	"vpsec/internal/attacks"
	"vpsec/internal/core"
	"vpsec/internal/stats"
)

func main() {
	fmt.Println("SMT volatile channel: receiver = co-runner timing its own windows")
	fmt.Println()

	for _, pk := range []attacks.PredictorKind{attacks.NoVP, attacks.LVP} {
		r, err := attacks.RunVolatileSMT(context.Background(), core.TestHit, attacks.Options{
			Predictor: pk, Runs: 40, Seed: 11,
		})
		if err != nil {
			log.Fatal(err)
		}
		mm := stats.Summarize(r.Mapped)
		mu := stats.Summarize(r.Unmapped)
		verdict := "cannot distinguish the secret"
		if r.Effective() {
			verdict = "LEAKS the secret bit"
		}
		fmt.Printf("%-5s: secret=1 windows %.1f±%.1f, secret=0 windows %.1f±%.1f cycles\n",
			pk, mm.Mean, mm.StdDev(), mu.Mean, mu.StdDev())
		fmt.Printf("       p=%.4f (Mann-Whitney %.4f) -> sampler %s\n\n", r.P, r.MWp, verdict)
	}

	fmt.Println("The sampler never reads the victim's memory, never shares data,")
	fmt.Println("and never touches a flushed cache line: the only coupling is the")
	fmt.Println("issue-port contention created by value-predicted transient code.")
}
