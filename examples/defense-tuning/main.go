// Defense tuning demo (Sec. VI-B): pick an R-type window size by
// sweeping security (attack p-values) against performance (value-
// prediction speedup on a pointer-chase workload). The paper's
// conclusion: window 3 suffices for Train+Test while keeping the
// performance win; Test+Hit needs window 9 — too costly — so a smaller
// window plus the A-type defense is the practical combination.
package main

import (
	"context"
	"fmt"
	"log"

	"vpsec/internal/attacks"
	"vpsec/internal/core"
	"vpsec/internal/defense"
	"vpsec/internal/workload"
)

func main() {
	ctx := context.Background()
	base := attacks.Options{Channel: core.TimingWindow, Runs: 60, Seed: 9}

	fmt.Println("security sweep: R-type window vs attack effectiveness")
	fmt.Println()
	fmt.Printf("%-8s  %-22s  %-22s  %s\n", "window", "Train+Test p-value", "Test+Hit p-value", "chase speedup")

	chase, err := workload.PointerChase(64, 8, false)
	if err != nil {
		log.Fatal(err)
	}
	ttPts, err := defense.SweepRWindow(ctx, core.TrainTest, 9, base)
	if err != nil {
		log.Fatal(err)
	}
	thPts, err := defense.SweepRWindow(ctx, core.TestHit, 9, base)
	if err != nil {
		log.Fatal(err)
	}
	perf, err := workload.RTypeCost(chase, 4, []int{1, 2, 3, 4, 5, 6, 7, 8, 9}, 3)
	if err != nil {
		log.Fatal(err)
	}
	mark := func(p defense.SweepPoint) string {
		if p.Effective() {
			return fmt.Sprintf("%.4f  LEAKS", p.P)
		}
		return fmt.Sprintf("%.4f  secure", p.P)
	}
	for i := range ttPts {
		fmt.Printf("%-8d  %-22s  %-22s  %.2fx\n", ttPts[i].Window, mark(ttPts[i]), mark(thPts[i]), perf[i].Speedup)
	}

	fmt.Printf("\nminimal secure window: Train+Test %d (paper: 3), Test+Hit %d (paper: 9)\n",
		defense.MinimalSecureWindow(ttPts), defense.MinimalSecureWindow(thPts))

	// The practical combination for Test+Hit: window 5 + A-type.
	opt := base
	opt.Defense = attacks.Stack(attacks.AlwaysPredict(true), attacks.RandomWindow(5))
	r, err := attacks.Run(core.TestHit, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTest+Hit with A-type + R(5): p=%.4f (paper: combining A-type with a\n", r.P)
	fmt.Println("performance-friendly window fully prevents the attack)")
}
