package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// A run measures start-up in separate processes of this program, so
// each sample includes the Go runtime's start and every package's
// initialization — work moved into package init or into lazy first-use
// memos shows up in setup_s or cold_pass_s rather than disappearing.
// The layer probes run in a process of their own too, so the workload
// the run measured leaves no heap behind to weigh on them.
const (
	// startupReps processes time set-up, started at even steps through
	// the time budget; setup_s is their median.
	startupReps = 9
	// coldProbes of them, every third from the second, also run one pass
	// on their fresh instance; with the run's own warm-up pass they are
	// cold_pass_s's samples.
	coldProbes = 3
)

// child runs this program again with the given -probe mode and flags,
// and returns its standard output a line at a time, timestamped from
// process start.
func child(mode string, args []string, line func(text string, since time.Duration)) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, append([]string{"-probe", mode}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line(sc.Text(), time.Since(t0))
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("%s probe: %w", mode, err)
	}
	return sc.Err()
}

// startup measures one start-up of the workload: the set-up time and,
// when cold is set, the time of the first pass that follows. A child
// process reports "ready" once set up and "cold <seconds>" after its
// pass; with cfg.inProcess the same is timed in this process.
func startup(w workload, cfg config, cold bool) (setupSec, coldSec float64, err error) {
	if cfg.inProcess {
		return startInProcess(w, cfg, cold)
	}
	mode := "setup"
	if cold {
		mode = "cold"
	}
	err = child(mode, []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed)}, func(text string, since time.Duration) {
		f := strings.Fields(text)
		switch {
		case len(f) == 1 && f[0] == "ready":
			setupSec = since.Seconds()
		case len(f) == 2 && f[0] == "cold":
			coldSec, _ = strconv.ParseFloat(f[1], 64)
		}
	})
	if err == nil && (setupSec == 0 || (cold && coldSec == 0)) {
		err = fmt.Errorf("%s probe reported no time", mode)
	}
	return setupSec, coldSec, err
}

// startInProcess times a start-up from the set-up call on.
func startInProcess(w workload, cfg config, cold bool) (float64, float64, error) {
	t0 := time.Now()
	inst, err := w.setup(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer inst.close()
	setupSec := time.Since(t0).Seconds()
	if !cold {
		return setupSec, 0, nil
	}
	t0 = time.Now()
	if _, err := inst.pass(passOpts{}); err != nil {
		return 0, 0, err
	}
	return setupSec, time.Since(t0).Seconds(), nil
}

// probeMetric is a layer probe result as a child process prints it.
type probeMetric struct {
	Name, Unit string
	Vals       []float64
}

// layerMetrics runs the layer probes in a child process (-probe
// layers), or with cfg.inProcess in this one.
func layerMetrics(cfg config) ([]metric, error) {
	var rep report
	if cfg.inProcess {
		err := runProbes(cfg, &rep)
		return rep.layer, err
	}
	var out []probeMetric
	var decodeErr error
	err := child("layers", []string{"-seed", fmt.Sprint(cfg.seed)}, func(text string, _ time.Duration) {
		decodeErr = json.Unmarshal([]byte(text), &out)
	})
	if err == nil {
		err = decodeErr
	}
	ms := make([]metric, len(out))
	for i, m := range out {
		ms[i] = metric{m.Name, m.Unit, m.Vals}
	}
	return ms, err
}

// probe is the child side: set a workload up and report "ready", and in
// cold mode run one checked pass and report its time; or in layers mode
// run the layer probes and print their results as one JSON line.
func probe(mode, name string, cfg config) error {
	if mode == "layers" {
		var rep report
		if err := runProbes(cfg, &rep); err != nil {
			return err
		}
		out := make([]probeMetric, len(rep.layer))
		for i, m := range rep.layer {
			out[i] = probeMetric{m.name, m.unit, m.vals}
		}
		return json.NewEncoder(os.Stdout).Encode(out)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	inst, err := w.setup(cfg)
	if err != nil {
		return err
	}
	defer inst.close()
	fmt.Println("ready")
	if mode != "cold" {
		return nil
	}
	t0 := time.Now()
	out, err := inst.pass(passOpts{})
	if err != nil {
		return err
	}
	if out.failed > 0 {
		return fmt.Errorf("cold pass: %d operations failed, first: %s", out.failed, out.failures[0])
	}
	fmt.Printf("cold %v\n", time.Since(t0).Seconds())
	return nil
}
