// Quickstart: assemble a small program, run it on the out-of-order
// simulator with a last value predictor, and watch the per-iteration
// latency of a repeatedly-missing load collapse once the predictor's
// confidence threshold is reached — the microarchitectural behavior
// every attack in this repository builds on.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"vpsec/internal/asm"
	"vpsec/internal/cpu"
	"vpsec/internal/predictor"
	"vpsec/internal/scenario"
)

const src = `
; Time 8 iterations of: flush the line, then load it (always a miss)
; plus a dependent load whose address comes from the loaded value.
.equ target   0x1000
.equ depbase  0x4000
.equ results  0x8000
.word target, 0x28          ; the value the predictor will learn

        movi r1, target
        movi r9, depbase
        movi r10, results
        movi r3, 0
        movi r4, 8
loop:   flush r1, 0
        fence
        rdtsc r20
        load  r2, r1, 0      ; trains, then predicts
        andi  r5, r2, 0x38
        shli  r5, r5, 3
        add   r6, r9, r5
        load  r7, r6, 0      ; dependent: overlaps only when predicted
        fence
        rdtsc r21
        sub   r22, r21, r20
        shli  r11, r3, 3
        add   r12, r10, r11
        store r12, 0, r22
        flush r6, 0
        fence
        addi  r3, r3, 1
        blt   r3, r4, loop
        halt
`

func main() {
	prog, err := asm.Assemble("quickstart", src)
	if err != nil {
		log.Fatal(err)
	}

	lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 4})
	if err != nil {
		log.Fatal(err)
	}
	m, err := cpu.NewMachine(cpu.Config{}, nil, lvp, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}
	proc, err := m.NewProcess(1, prog, 0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.Run(proc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Per-iteration latency of the flushed load + dependent chain:")
	for i := 0; i < 8; i++ {
		dt := m.Hier.Mem.Peek(0x8000 + uint64(8*i))
		note := "training (no prediction: two serialized misses)"
		if i >= 4 {
			note = "PREDICTED (dependent load overlaps the miss)"
		}
		fmt.Printf("  iteration %d: %4d cycles   %s\n", i, dt, note)
	}
	fmt.Printf("\nrun: %d cycles, %d instructions (IPC %.2f)\n", res.Cycles, res.Retired, res.IPC())
	fmt.Printf("VPS: %d lookups, %d predictions (%d correct, %d wrong), %d below confidence\n",
		res.Predictions+res.NoPredictions, res.Predictions, res.VerifyCorrect, res.VerifyWrong, res.NoPredictions)
	fmt.Println("\nThe confidence threshold is 4: the 5th access is the first prediction.")
	fmt.Println("That timing cliff is exactly what the paper's attacks measure.")

	// The same cliff, weaponized — declaratively. Every experiment in
	// this repository is a scenario spec: a JSON-serializable value that
	// scenario.Execute dispatches to the measurement harness (the CLIs'
	// -scenario flag loads the same thing from a file or the registry;
	// `vpattack -list` enumerates the paper's full evaluation).
	spec := scenario.Spec{
		Kind:     scenario.KindCase,
		Category: "Train + Test",
		Runs:     20,
		Seed:     1,
	}
	ares, err := scenario.Execute(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	c := ares.Case()
	fmt.Printf("\nDeclarative spec {kind: case, category: %q, runs: %d} ->\n", spec.Category, spec.Runs)
	fmt.Printf("  Train+Test attack on the %s: p=%.4f, per-bit success %.0f%% — effective: %v\n",
		c.Opt.Predictor, c.P, 100*c.SuccessRate, c.Effective())
}
