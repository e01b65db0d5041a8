// Command bench is the repository's layered benchmark. It runs three
// named workloads — the registry sweep, the full cache-vulnerability
// matrix and a vpserver traffic mix — and reports end-to-end metrics
// (set-up time, cold and steady pass times, peak memory) plus
// per-layer metrics from a counted pass, a traced pass and
// microbenchmarks of each layer's public entry points.
// Every output is checked: pass digests and exact work counters must
// agree across passes and, at seed offset 0, with the values pinned in
// pinned.json. Any failed check makes the run exit non-zero.
//
// Usage, from this directory:
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE]
//
// Without -workload every workload runs, each in its own process. The
// last line of a single workload's output is a JSON object with the
// result: -trace 0 reports the end-to-end metrics, -trace 1 (the
// default) the per-layer ones. See README.md for the metric glossary.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
)

// defaultSeconds is the default time budget of a run's passes and
// start-up probes; it matches run_seconds in BENCHMARK.json.
const defaultSeconds = 36

// minPasses is the number of timed passes run even when they overrun
// the time budget, so every run has a median and quartiles. It is also
// the pass after which peak_rss_mb is read.
const minPasses = 3

//go:embed pinned.json
var pinnedJSON []byte

// pin is a set of expected outputs.
type pin struct {
	Digest string            `json:"digest,omitempty"`
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// pins are one workload's expected outputs: Seed0 holds at seed offset
// 0 only, Always at every offset. Both apply to the full inputs only.
type pins struct {
	Seed0  pin `json:"seed0"`
	Always pin `json:"always"`
}

func loadPins() (map[string]pins, error) {
	var p map[string]pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("pinned.json: %w", err)
	}
	return p, nil
}

func main() {
	name := flag.String("workload", "", "workload to run; empty runs every workload, each in its own process")
	seed := flag.Int64("seed", 0, "offset added to every input seed; 0 is the pinned configuration")
	seconds := flag.Float64("seconds", defaultSeconds, "time budget of the passes and start-up probes; the traced pass and layer probes come after it")
	trace := flag.Int("trace", 1, "1 adds the traced pass and the layer probes, and reports per-layer metrics; 0 reports end-to-end metrics")
	spans := flag.String("spans", "", "write the traced pass's spans to this file as JSON lines")
	probeMode := flag.String("probe", "", "setup, cold or layers: the child-process modes the benchmark runs itself in to time start-up and to run the layer probes")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 ||
		(*probeMode != "" && *probeMode != "setup" && *probeMode != "cold" && *probeMode != "layers") {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *probeMode != "" {
		if err := probe(*probeMode, *name, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s probe: %v\n", *probeMode, err)
			os.Exit(1)
		}
		return
	}
	if *name == "" {
		os.Exit(runAll())
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	all, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep, sink, err := run(w, cfg, all[w.name])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if *spans != "" && sink != nil {
		if err := sink.write(*spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// runAll runs every workload in a child process of its own, passing the
// remaining flags through, and returns the exit code.
func runAll() int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workload", "probe":
			case "spans":
				args = append(args, "-spans", f.Value.String()+"."+w.name)
			default:
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func hostLine() string {
	return fmt.Sprintf("GOMAXPROCS %d, %d CPUs, %s %s/%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
