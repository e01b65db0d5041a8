// Pipeline anatomy: trace a value prediction and its misprediction
// through the out-of-order core, then render the pipeline diagram the
// attacks' timing differences come from. Also exportable to the Kanata
// viewer via cmd/vpsim -kanata.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"vpsec/internal/cpu"
	"vpsec/internal/isa"
	"vpsec/internal/predictor"
	"vpsec/internal/trace"
)

func main() {
	lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2})
	if err != nil {
		log.Fatal(err)
	}
	m, err := cpu.NewMachine(cpu.Config{}, nil, lvp, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}
	var rec trace.Recorder
	m.Events = rec.Record

	// Train a load on value 5, then change memory so the last
	// iteration mispredicts and squashes its dependent.
	b := isa.NewBuilder("anatomy")
	b.Word(0x1000, 5)
	b.MovI(isa.R1, 0x1000)
	b.MovI(isa.R14, 1)
	b.MovI(isa.R3, 0)
	b.MovI(isa.R4, 3)
	b.Label("loop")
	b.Flush(isa.R1, 0)
	b.Fence()
	b.Load(isa.R2, isa.R1, 0)     // the predicted load
	b.Add(isa.R5, isa.R2, isa.R2) // dependent: consumes the prediction
	b.Fence()
	b.AddI(isa.R3, isa.R3, 1)
	b.Blt(isa.R3, isa.R4, "loop")
	b.Beq(isa.R15, isa.R14, "end")
	b.MovI(isa.R15, 1)
	b.MovI(isa.R6, 9)
	b.Store(isa.R1, 0, isa.R6) // value changes: next prediction is wrong
	b.Fence()
	b.MovI(isa.R4, 4)
	b.Jmp("loop")
	b.Label("end")
	b.Halt()

	proc, err := m.NewProcess(1, b.MustBuild(), 0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.Run(proc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("run: %d cycles, %d predictions (%d correct, %d squash)\n\n",
		res.Cycles, res.Predictions, res.VerifyCorrect, res.VerifyWrong)

	// Find the mispredicted load in the event stream and show its
	// neighborhood.
	var wrongSeq uint64
	for _, ev := range rec.Events() {
		if ev.Kind == trace.Verify && !ev.Correct {
			wrongSeq = ev.Seq
		}
	}
	lo := uint64(0)
	if wrongSeq > 4 {
		lo = wrongSeq - 4
	}
	fmt.Println("pipeline diagram around the misprediction:")
	fmt.Print(rec.RenderPipeline(lo, wrongSeq+6))
	fmt.Println()
	fmt.Println("Reading the diagram: the predicted load writes back (W) one cycle")
	fmt.Println("after issue — its dependent executes immediately — but the verify")
	fmt.Println("(V) lands ~160 cycles later when DRAM responds. A wrong verify")
	fmt.Println("squashes (x) everything younger; that latency gap IS the signal")
	fmt.Println("every attack in this repository measures.")
}
