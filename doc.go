// Package vpsec is a from-scratch reproduction of "New Predictor-Based
// Attacks in Processors" (Deng & Szefer, DAC 2021): the first security
// analysis of value predictors.
//
// The repository contains the full experimental stack the paper ran on
// a modified gem5 — rebuilt in pure Go with the standard library only:
//
//   - internal/cpu: a cycle-level out-of-order core with a Value
//     Prediction System, verification, squash/replay and transient
//     cache side effects (the paper's Fig. 1);
//   - internal/mem: set-associative caches, TLB and DRAM with CLFLUSH;
//   - internal/isa + internal/asm: the load/store ISA and assembler the
//     attack programs are written in;
//   - internal/predictor: LVP, VTAGE, oracle predictors and the A-type/
//     R-type defense wrappers (D-type lives in the pipeline);
//   - internal/core: the attack model — Table I's actions, the
//     576-pattern enumeration and the reduction rules yielding the 12
//     attack variants of Table II;
//   - internal/attacks: executable Train+Test, Test+Hit, Train+Hit,
//     Spill Over, Fill Up and Modify+Test attacks over timing-window
//     and persistent channels, with the p-value evaluation of Figs. 5/8
//     and Table III;
//   - internal/defense: the Sec. VI defense evaluation (window sweeps,
//     strategy matrix);
//   - internal/rsa: the modexp victim of Fig. 6 and the key-recovery
//     attack of Fig. 7;
//   - internal/workload: the value-locality kernels behind the
//     performance claims.
//
// See DESIGN.md for the system inventory and per-experiment index,
// EXPERIMENTS.md for paper-vs-measured results, and bench_test.go for
// one benchmark per table and figure.
package vpsec
