// Command vpsim runs a .vasm assembly program on the value-prediction
// simulator and reports timing and predictor statistics. A program run
// compiles to a sim scenario spec, so it and its -scenario spelling
// execute the same code.
//
// Usage:
//
//	vpsim [-predictor none|lvp|vtage] [-confidence N] [-memtrace] prog.vasm
//	vpsim -perf    # run the value-locality performance suite instead
//	vpsim -scenario sim-spec.json   # declarative form of a sim run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vpsec/cmd/internal/scencli"
	"vpsec/internal/asm"
	"vpsec/internal/isa"
	"vpsec/internal/scenario"
	"vpsec/internal/trace"
	"vpsec/internal/workload"
)

var command = scencli.Command{Name: "vpsim", Flags: flags}

func main() {
	os.Exit(scencli.Main(command, os.Args[1:], os.Stdout, os.Stderr))
}

// flags registers vpsim's flags. A program run compiles to a sim spec;
// -perf and -dump are modes without one.
func flags(fs *flag.FlagSet, _ *scencli.Env) scencli.Plan {
	var (
		predKind = fs.String("predictor", "lvp", "value predictor: none, lvp, vtage, stride, stride-2d, fcm")
		scheme   = fs.String("scheme", "pc", "predictor index: pc, addr or phys")
		conf     = fs.Int("confidence", 4, "VPS confidence number")
		seed     = fs.Int64("seed", 1, "RNG seed")
		memTrace = fs.Bool("memtrace", false, "trace memory-system events to stdout (the shared -trace flag writes an execution trace)")
		perf     = fs.Bool("perf", false, "run the performance suite (ignores program argument)")
		regs     = fs.Bool("regs", false, "dump final architectural registers")
		dump     = fs.Bool("dump", false, "print the assembled program back as .vasm and exit")
		pipeview = fs.Int("pipeview", 0, "render a pipeline diagram of the first N dynamic instructions")
		kanata   = fs.String("kanata", "", "write a Kanata pipeline trace to this file")
	)
	return func(env *scencli.Env) ([]scenario.Spec, error) {
		if *perf {
			env.Manifest.Seed = *seed
			return nil, runPerf(env.Stdout, *conf, *seed)
		}
		if fs.NArg() != 1 {
			return nil, scencli.Usage("usage: vpsim [flags] prog.vasm   (or vpsim -perf)")
		}
		if *dump {
			src, err := os.ReadFile(fs.Arg(0))
			if err != nil {
				return nil, err
			}
			prog, err := asm.Assemble(fs.Arg(0), string(src))
			if err != nil {
				return nil, err
			}
			_, err = io.WriteString(env.Stdout, asm.Format(prog))
			return nil, err
		}
		var rec trace.Recorder
		views := *pipeview > 0 || *kanata != ""
		if views || *memTrace {
			env.Events = func(ev trace.Event) {
				if *memTrace && ev.Kind == trace.Access {
					writeAccess(env.Stdout, ev)
				}
				if views {
					rec.Record(ev)
				}
			}
		}
		env.After = func(res *scenario.Result) error {
			if *pipeview > 0 {
				fmt.Fprintln(env.Stdout)
				fmt.Fprint(env.Stdout, rec.RenderPipeline(0, uint64(*pipeview)-1))
			}
			if *kanata != "" {
				if err := writeKanata(*kanata, &rec); err != nil {
					return err
				}
				fmt.Fprintf(env.Stderr, "vpsim: wrote %s (%d events)\n", *kanata, len(rec.Events()))
			}
			if *regs {
				for r, v := range res.Sim.Run.Regs {
					if v != 0 {
						fmt.Fprintf(env.Stdout, "  r%-2d = %#x (%d)\n", r, v, v)
					}
				}
			}
			return nil
		}
		return []scenario.Spec{{
			Kind:       scenario.KindSim,
			Program:    fs.Arg(0),
			Predictor:  *predKind,
			Scheme:     *scheme,
			Confidence: *conf,
			Seed:       *seed,
		}}, nil
	}
}

// writeAccess prints a memory access as a -memtrace line: the cycle,
// the stage and instruction, the physical address, and for a load what
// served it and the latency before jitter.
func writeAccess(w io.Writer, ev trace.Event) {
	switch {
	case ev.Stage == trace.Commit:
		fmt.Fprintf(w, "%d: commit FLUSH pc=%d paddr=%#x\n", ev.Cycle, ev.PC, ev.PAddr)
	case ev.Instr.Op == isa.LOAD:
		fmt.Fprintf(w, "%d: issue LOAD pc=%d paddr=%#x served=%v lat=%d\n", ev.Cycle, ev.PC, ev.PAddr, ev.Level, ev.Latency)
	default:
		fmt.Fprintf(w, "%d: issue %v pc=%d paddr=%#x\n", ev.Cycle, ev.Instr.Op, ev.PC, ev.PAddr)
	}
}

// writeKanata exports the recorded pipeline events as a Kanata trace.
func writeKanata(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.ExportKanata(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runPerf(w io.Writer, conf int, seed int64) error {
	fmt.Fprintln(w, "Value-prediction performance suite (small hierarchy; the")
	fmt.Fprintln(w, "paper's intro cites 4.8%-11.2% gains on SPEC-class workloads;")
	fmt.Fprintln(w, "these kernels isolate the dependence chains VP parallelizes):")
	fmt.Fprintln(w)

	rolled, err := workload.PointerChase(64, 8, false)
	if err != nil {
		return err
	}
	unrolled, err := workload.PointerChase(64, 8, true)
	if err != nil {
		return err
	}
	alu, err := workload.ALUMix(2000)
	if err != nil {
		return err
	}
	hp, err := workload.HashProbe(64, 300)
	if err != nil {
		return err
	}
	ss, err := workload.StreamSum(300)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		f    func() (workload.SpeedupResult, error)
	}{
		{"pointer-chase (rolled, addr-indexed LVP)", func() (workload.SpeedupResult, error) {
			return workload.Speedup(rolled, workload.LVPByAddr(conf), seed)
		}},
		{"pointer-chase (unrolled, PC-indexed LVP)", func() (workload.SpeedupResult, error) {
			return workload.Speedup(unrolled, workload.LVPByPC(conf), seed)
		}},
		{"alu-mix (PC-indexed LVP)", func() (workload.SpeedupResult, error) {
			return workload.Speedup(alu, workload.LVPByPC(conf), seed)
		}},
		{"hash-probe (no value locality)", func() (workload.SpeedupResult, error) {
			return workload.Speedup(hp, workload.LVPByAddr(conf), seed)
		}},
		{"stream-sum (independent loads)", func() (workload.SpeedupResult, error) {
			return workload.Speedup(ss, workload.LVPByPC(conf), seed)
		}},
	} {
		r, err := c.f()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-42s base IPC %.3f  VP IPC %.3f  speedup %.2fx (%d correct / %d wrong predictions)\n",
			c.name, r.Base.IPC, r.VP.IPC, r.Speedup, r.VP.Correct, r.VP.Wrong)
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "R-type defense performance cost (Sec. VI-B):")
	pts, err := workload.RTypeCost(rolled, conf, []int{1, 3, 5, 9}, seed)
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Fprintf(w, "  window %d: speedup %.2fx\n", p.Window, p.Speedup)
	}
	return nil
}
