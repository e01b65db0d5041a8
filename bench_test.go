// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its artifact (at a reduced
// trial count — the cmd/ tools run the full 100-trial versions) and
// reports the headline numbers as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper reports next to the usual
// time/op numbers.
package vpsec_test

import (
	"context"
	"testing"

	"vpsec/internal/attacks"
	"vpsec/internal/core"
	"vpsec/internal/cpu"
	"vpsec/internal/defense"
	"vpsec/internal/isa"
	"vpsec/internal/locality"
	"vpsec/internal/predictor"
	"vpsec/internal/rsa"
	"vpsec/internal/stats"
	"vpsec/internal/workload"
)

const benchRuns = 12 // trials per case inside benchmarks

func benchOpt(ch core.Channel, pk attacks.PredictorKind, seed int64) attacks.Options {
	return attacks.Options{Predictor: pk, Channel: ch, Runs: benchRuns, Seed: seed}
}

// runCase is a benchmark helper executing one attack cell.
func runCase(b *testing.B, cat core.Category, opt attacks.Options) attacks.CaseResult {
	b.Helper()
	r, err := attacks.Run(cat, opt)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkFig5TrainTest regenerates Fig. 5: Train+Test timing
// distributions over the timing-window and persistent channels, with
// and without the LVP. Reported metrics are the four panels' p-values
// (paper: 0.8169 / 0.0420 / 0.7521 / 0.0000).
func BenchmarkFig5TrainTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p1 := runCase(b, core.TrainTest, benchOpt(core.TimingWindow, attacks.NoVP, 1)).P
		p2 := runCase(b, core.TrainTest, benchOpt(core.TimingWindow, attacks.LVP, 1)).P
		p3 := runCase(b, core.TrainTest, benchOpt(core.Persistent, attacks.NoVP, 1)).P
		p4 := runCase(b, core.TrainTest, benchOpt(core.Persistent, attacks.LVP, 1)).P
		if i == 0 {
			b.ReportMetric(p1, "p1_tw_noVP")
			b.ReportMetric(p2, "p2_tw_LVP")
			b.ReportMetric(p3, "p3_pers_noVP")
			b.ReportMetric(p4, "p4_pers_LVP")
		}
	}
}

// BenchmarkFig8TestHit regenerates Fig. 8: Test+Hit distributions
// (paper p-values: 0.2630 / 0.0072 / 0.6111 / 0.0000).
func BenchmarkFig8TestHit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p1 := runCase(b, core.TestHit, benchOpt(core.TimingWindow, attacks.NoVP, 2)).P
		p2 := runCase(b, core.TestHit, benchOpt(core.TimingWindow, attacks.LVP, 2)).P
		p3 := runCase(b, core.TestHit, benchOpt(core.Persistent, attacks.NoVP, 2)).P
		p4 := runCase(b, core.TestHit, benchOpt(core.Persistent, attacks.LVP, 2)).P
		if i == 0 {
			b.ReportMetric(p1, "p1_tw_noVP")
			b.ReportMetric(p2, "p2_tw_LVP")
			b.ReportMetric(p3, "p3_pers_noVP")
			b.ReportMetric(p4, "p4_pers_LVP")
		}
	}
}

// BenchmarkFig7RSAKeyLeak regenerates Fig. 7: the per-iteration timing
// sequence of the modexp victim and the exponent recovery (paper:
// 95.7% success, 9.65 Kbps).
func BenchmarkFig7RSAKeyLeak(b *testing.B) {
	cfg := rsa.VictimConfig{
		Base:     0x1234567,
		Mod:      0x3b9aca07,
		Exponent: 0b101100111010110111001011,
		ExpBits:  24,
	}
	for i := 0; i < b.N; i++ {
		res, err := rsa.Attack(cfg, rsa.AttackOptions{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.BitSuccess*100, "%bit_success")
			b.ReportMetric(res.RateBps/1000, "Kbps")
		}
	}
}

// BenchmarkTableII regenerates Table II: reducing the 576 candidate
// patterns to the 12 effective attack variants.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := core.Reduce()
		if len(v) != 12 {
			b.Fatalf("got %d variants, want 12", len(v))
		}
	}
	b.ReportMetric(float64(len(core.AllPatterns())), "patterns")
	b.ReportMetric(12, "variants")
}

// BenchmarkTableIII regenerates Table III: all six attack categories
// over both channels, with and without the LVP. Metrics report how
// many of the paper's red (effective) and black (ineffective) cells
// reproduce.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := attacks.TableIII(context.Background(), attacks.LVP, attacks.Options{Runs: benchRuns, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			okRed, okBlack, red, black := 0, 0, 0, 0
			score := func(r attacks.CaseResult, wantEffective bool) {
				if wantEffective {
					red++
					if r.Effective() {
						okRed++
					}
				} else {
					black++
					if !r.Effective() {
						okBlack++
					}
				}
			}
			for _, row := range rows {
				score(row.TWNoVP, false)
				score(row.TWVP, true)
				if row.HasPersistent {
					score(row.PersNoVP, false)
					score(row.PersVP, true)
				}
			}
			b.ReportMetric(float64(okRed), "effective_cells_ok")
			b.ReportMetric(float64(okBlack), "control_cells_ok")
			b.ReportMetric(float64(red+black), "cells_total")
		}
	}
}

// BenchmarkDefenseWindowSweep regenerates the Sec. VI-B R-type window
// sweeps; metrics are the minimal secure windows (paper: 3 for
// Train+Test, 9 for Test+Hit).
func BenchmarkDefenseWindowSweep(b *testing.B) {
	// The weak residual leaks at intermediate windows (P(fast) differs
	// by 1/W) need ~60 trials of statistical power to detect, like the
	// paper's 100-run evaluation.
	base := attacks.Options{Channel: core.TimingWindow, Runs: 60, Seed: 5}
	for i := 0; i < b.N; i++ {
		tt, err := defense.SweepRWindow(context.Background(), core.TrainTest, 4, base)
		if err != nil {
			b.Fatal(err)
		}
		th, err := defense.SweepRWindow(context.Background(), core.TestHit, 10, base)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(defense.MinimalSecureWindow(tt)), "TrainTest_min_window")
			b.ReportMetric(float64(defense.MinimalSecureWindow(th)), "TestHit_min_window")
		}
	}
}

// BenchmarkDefenseMatrix regenerates the Sec. VI-B coverage matrix;
// the metric reports whether the combined A+R+D strategy defends every
// attack (1 = yes, the paper's claim).
func BenchmarkDefenseMatrix(b *testing.B) {
	base := attacks.Options{Runs: 20, Seed: 7}
	strategies := []defense.Strategy{
		{Name: "none", Stack: nil},
		{Name: "A+R(9)+D", Stack: attacks.Stack(attacks.AlwaysPredict(false), attacks.RandomWindow(9), attacks.DelayEffects())},
	}
	for i := 0; i < b.N; i++ {
		cells, err := defense.Matrix(context.Background(), base, strategies)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			all := 0.0
			if defense.AllDefended(cells, "A+R(9)+D") {
				all = 1
			}
			b.ReportMetric(all, "combined_defends_all")
		}
	}
}

// BenchmarkVPSpeedup regenerates the performance motivation (the intro
// cites 4.8%-11.2% on SPEC-class suites; the pointer-chase kernel
// isolates the dependence chains VP parallelizes, so its speedup is
// larger).
func BenchmarkVPSpeedup(b *testing.B) {
	prog, err := workload.PointerChase(64, 8, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := workload.Speedup(prog, workload.LVPByAddr(2), 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Speedup, "speedup_x")
			b.ReportMetric(r.VP.IPC, "vp_IPC")
			b.ReportMetric(r.Base.IPC, "base_IPC")
		}
	}
}

// BenchmarkSimulator measures raw simulation throughput: simulated
// cycles per wall-second on the RSA victim (the heaviest kernel).
func BenchmarkSimulator(b *testing.B) {
	cfg := rsa.VictimConfig{Base: 3, Mod: 1000003, Exponent: 0xA5A5, ExpBits: 16}
	prog, err := rsa.BuildVictim(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := cpu.NewMachine(cpu.Config{}, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		proc, err := m.NewProcess(1, prog, 0)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run(proc)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim_cycles/op")
}

// BenchmarkLVPPredict measures the predictor's lookup cost.
func BenchmarkLVPPredict(b *testing.B) {
	p, err := predictor.NewLVP(predictor.LVPConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := predictor.Context{PC: 0x40, Addr: 0x1000}
	p.Update(ctx, 7, predictor.Prediction{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(ctx)
	}
}

// BenchmarkWelchTTest measures the statistics kernel on 100+100
// samples (one Table III cell's worth).
func BenchmarkWelchTTest(b *testing.B) {
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i%17) + 160
		ys[i] = float64(i%13) + 330
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.WelchTTest(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterp measures golden-model throughput for comparison with
// the cycle-level pipeline.
func BenchmarkInterp(b *testing.B) {
	prog := isa.NewBuilder("spin").
		MovI(isa.R1, 0).
		MovI(isa.R2, 10000).
		Label("l").
		AddI(isa.R1, isa.R1, 1).
		Blt(isa.R1, isa.R2, "l").
		Halt().
		MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := isa.NewInterp(prog)
		if _, err := it.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVolatileChannel evaluates the port-contention channel
// (Sec. V's third channel type) for the three secret-training
// categories; metrics are the with-LVP p-values (all ~0) and the no-VP
// control (uniform).
func BenchmarkVolatileChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pv := runCase(b, core.TestHit, benchOpt(core.Volatile, attacks.LVP, 4)).P
		pn := runCase(b, core.TestHit, benchOpt(core.Volatile, attacks.NoVP, 4)).P
		if i == 0 {
			b.ReportMetric(pv, "p_LVP")
			b.ReportMetric(pn, "p_noVP")
		}
	}
}

// BenchmarkRSA2Limb runs the 128-bit MPI victim key recovery — the
// heaviest end-to-end experiment (two full two-limb modexps per op).
func BenchmarkRSA2Limb(b *testing.B) {
	cfg := rsa.VictimConfig2{
		Base:     [2]uint64{0x123456789abcdef, 0x2},
		Mod:      [2]uint64{0xffffffffffffff61, 0x3fffffffffffffff},
		Exponent: 0b1011001110,
		ExpBits:  10,
	}
	for i := 0; i < b.N; i++ {
		res, err := rsa.Attack2(cfg, rsa.AttackOptions{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.BitSuccess*100, "%bit_success")
		}
	}
}

// BenchmarkTableIIVariants executes all twelve Table II rows end to
// end; the metric reports how many leak (want 12).
func BenchmarkTableIIVariants(b *testing.B) {
	variants := core.Reduce()
	for i := 0; i < b.N; i++ {
		effective := 0
		for _, v := range variants {
			r, err := attacks.RunVariant(context.Background(), v, attacks.Options{Runs: benchRuns, Seed: 9})
			if err != nil {
				b.Fatal(err)
			}
			if r.Effective() {
				effective++
			}
		}
		if i == 0 {
			b.ReportMetric(float64(effective), "effective_rows")
			b.ReportMetric(float64(len(variants)), "rows")
		}
	}
}

// BenchmarkSMTVolatile measures the co-runner volatile channel.
func BenchmarkSMTVolatile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := attacks.RunTestHitVolatileSMT(context.Background(), attacks.Options{Runs: benchRuns, Seed: 6})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.P, "p_LVP")
		}
	}
}

// BenchmarkFPCTraining is the probabilistic-confidence ablation: the
// per-bit attack cost (simulated trial cycles) for Train+Test as FPC
// stretches the training. The reported metrics are the minimal
// effective training length and its p-value for FPC off (1) and 4.
func BenchmarkFPCTraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, fpc := range []int{0, 4} {
			opt := benchOpt(core.TimingWindow, attacks.LVP, 11)
			opt.FPC = fpc
			opt.Runs = 20
			train := 0 // the confidence-number default
			if fpc > 1 {
				train = 6 * fpc
			}
			opt.TrainIters = train
			r := runCase(b, core.TrainTest, opt)
			if i == 0 {
				label := "p_fpc_off"
				if fpc > 1 {
					label = "p_fpc4_train24"
				}
				b.ReportMetric(r.P, label)
			}
		}
	}
}

// BenchmarkStride2D runs Train+Test against the 2-delta stride
// predictor (predictor-generality ablation; want p < 0.05).
func BenchmarkStride2D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runCase(b, core.TrainTest, benchOpt(core.TimingWindow, attacks.Stride2D, 12))
		if i == 0 {
			b.ReportMetric(r.P, "p_stride2d")
		}
	}
}

// BenchmarkLocalityAudit profiles the RSA victim's load streams (the
// attack-surface audit of cmd/vplocality); the metric reports how many
// static loads the audit flags as predictable.
func BenchmarkLocalityAudit(b *testing.B) {
	prog, err := rsa.BuildVictim(rsa.VictimConfig{
		Base: 0x1234567, Mod: 0x3b9aca07,
		Exponent: 0b1011_0011_1010_1101_1100_1011, ExpBits: 24,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := locality.Profile(prog)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(r.Surface(locality.DefaultThreshold))), "surface_loads")
			b.ReportMetric(float64(len(r.Loads)), "loads")
		}
	}
}
