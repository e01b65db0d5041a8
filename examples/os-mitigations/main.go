// OS-mitigations demo: the hardware defenses of Sec. VI (A/R/D-type)
// change the predictor itself; an operating system that merely *knows*
// about value-predictor attacks has two cheaper levers, and this demo
// measures exactly what each buys:
//
//   - pid-indexed VPS (Sec. V-B): tag every entry with the process id,
//     so cross-process collisions disappear — unless the attacker can
//     share or spoof the victim's pid;
//   - VPS flush on context switch: clear the whole table at every
//     switch, which needs no tag bits and covers pid spoofing too, at
//     the cost of retraining after every timeslice.
//
// Neither touches internal-interference attacks (Train+Hit, Spill
// Over, Fill Up), where every predictor step happens inside the
// victim's own timeslice: those need the paper's hardware defenses.
package main

import (
	"context"
	"fmt"
	"log"

	"vpsec/internal/attacks"
	"vpsec/internal/core"
)

type mitigation struct {
	name  string
	apply func(*attacks.Options)
}

func main() {
	mitigations := []mitigation{
		{"no mitigation", func(o *attacks.Options) {}},
		{"pid-indexed VPS", func(o *attacks.Options) { o.UsePID = true }},
		{"flush on switch", func(o *attacks.Options) { o.Defense = attacks.Stack(attacks.FlushVPS()) }},
		{"A+R(9)+D (hw)", func(o *attacks.Options) {
			o.Defense = attacks.Stack(attacks.AlwaysPredict(false), attacks.RandomWindow(9), attacks.DelayEffects())
		}},
	}
	categories := []core.Category{
		core.TrainTest, core.TestHit, core.ModifyTest, // cross-process
		core.TrainHit, core.SpillOver, core.FillUp, // internal interference
	}

	fmt.Println("What does the OS buy against value-predictor attacks?")
	fmt.Println("(p < 0.05 means the attack still works; 60 runs per cell)")
	fmt.Println()
	fmt.Printf("%-14s", "attack")
	for _, m := range mitigations {
		fmt.Printf("  %-16s", m.name)
	}
	fmt.Println()

	for i, cat := range categories {
		if i == 3 {
			fmt.Println("  --- internal interference: OS mitigations cannot help ---")
		}
		fmt.Printf("%-14s", cat)
		for _, m := range mitigations {
			opt := attacks.Options{Channel: core.TimingWindow, Runs: 60, Seed: 21}
			m.apply(&opt)
			r, err := attacks.Run(context.Background(), cat, opt)
			if err != nil {
				log.Fatal(err)
			}
			verdict := "LEAKS"
			if !r.Effective() {
				verdict = "secure"
			}
			fmt.Printf("  %.4f %-9s", r.P, verdict)
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("Both OS levers kill the cross-process rows; only the paper's")
	fmt.Println("hardware defenses (A/R/D combined) cover internal interference,")
	fmt.Println("where sender and receiver are the same process.")
}
