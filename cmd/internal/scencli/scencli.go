// Package scencli is the one front-end of the scenario commands —
// vpattack, vpdefense, vpfigures, vpreport and vpsim. Main registers
// the shared flags, parses them, starts the profiles and the tracer,
// resolves what to run (a -scenario spec, or the specs the command's
// own flags compile to), executes and renders it, writes the metrics
// snapshot and the manifest from the specs that ran, and prints an
// error once as "<tool>: <err>". A command contributes only its own
// experiment flags and one plan function, so the flag spelling and the
// scenario spelling of an experiment run through the same code.
package scencli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"vpsec/internal/metrics"
	"vpsec/internal/obs"
	"vpsec/internal/scenario"
	"vpsec/internal/trace"
)

// Command is one command's own part of the front-end.
type Command struct {
	// Name is the command name: the prefix of its error line and the
	// manifest's tool.
	Name string
	// Flags registers the command's own flags on fs and returns the plan
	// that compiles them. It may bind presentation flags into env.Render.
	Flags func(fs *flag.FlagSet, env *Env) Plan
	// Compose names the command's own flags that may be set next to
	// -scenario: presentation knobs that leave the experiment alone.
	// Any other command flag set explicitly conflicts with the spec,
	// which is the authoritative experiment record.
	Compose []string
}

// Plan compiles the command's parsed flags into the specs to execute,
// in order. A mode that has no spec (a report, a catalog, a program
// dump) runs itself, writing its results to env.Stdout, returns no
// specs, and may describe its run in env.Manifest.
type Plan func(env *Env) ([]scenario.Spec, error)

// Env is the run infrastructure the shared flags build, handed to the
// command's plan.
type Env struct {
	// Stdout carries results only; confirmations, progress and errors
	// go to Stderr.
	Stdout, Stderr io.Writer
	// Jobs is -jobs. Main sets it on every spec a plan returns; under
	// -scenario it overrides the spec's only when set explicitly.
	Jobs int
	// Metrics is the registry -metrics and -manifest export; nil when
	// neither is requested.
	Metrics *metrics.Registry
	// Trace is the tracer -progress and -trace build; nil (the
	// zero-overhead disabled path) when neither is set.
	Trace *obs.Tracer
	// Manifest is the -manifest record. Main fills it from the executed
	// specs; a mode without a spec records its own seed, predictor and
	// config.
	Manifest *metrics.Manifest
	// Render selects the text form of every rendered spec.
	Render scenario.RenderOptions
	// Events, when a plan sets it, receives its sim spec's pipeline
	// event stream (vpsim -pipeview, -kanata and -memtrace).
	Events func(trace.Event)
	// After, when a plan sets it, runs once each spec has rendered,
	// with that spec's result.
	After func(*scenario.Result) error
}

// Usage is the error a plan returns when its flags select no mode:
// Main prints the line alone and exits 2, as for a flag parse error.
type Usage string

// Error returns the usage line.
func (u Usage) Error() string { return string(u) }

// Main runs cmd over args and returns the exit status: 0 on success,
// 1 after printing "<tool>: <err>" on stderr, 2 on a flag parse error
// or a Usage.
func Main(cmd Command, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(cmd.Name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := register(fs)
	// The flags registered so far are the shared ones; they, and the
	// command's presentation flags, compose with -scenario.
	composes := map[string]bool{}
	fs.VisitAll(func(fl *flag.Flag) { composes[fl.Name] = true })
	for _, name := range cmd.Compose {
		composes[name] = true
	}
	env := &Env{Stdout: stdout, Stderr: stderr}
	plan := cmd.Flags(fs, env)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := f.run(cmd.Name, fs, composes, plan, env)
	var usage Usage
	switch {
	case err == nil:
		return 0
	case errors.As(err, &usage):
		fmt.Fprintln(stderr, usage)
		return 2
	default:
		fmt.Fprintf(stderr, "%s: %v\n", cmd.Name, err)
		return 1
	}
}

// flags holds the shared flag values.
type flags struct {
	scenario, describe string
	list               bool

	progress bool
	interval time.Duration
	trace    string

	jobs    int
	records Records

	cpuprofile, memprofile string
}

// register adds the shared flags to fs.
func register(fs *flag.FlagSet) *flags {
	f := &flags{}
	fs.StringVar(&f.scenario, "scenario", "", "run a registered scenario or a JSON spec file (-list enumerates)")
	fs.BoolVar(&f.list, "list", false, "list the registered scenarios and exit")
	fs.StringVar(&f.describe, "describe", "", "print a scenario's canonical JSON spec and exit")
	fs.BoolVar(&f.progress, "progress", false, "render live progress (trials done, rate, ETA, worker utilization) to stderr")
	fs.DurationVar(&f.interval, "progress-interval", 500*time.Millisecond, "progress render interval (with -progress)")
	fs.StringVar(&f.trace, "trace", "", "write an execution trace to this file (.jsonl: event stream for tools/tracestat; otherwise Chrome trace-event JSON for Perfetto)")
	fs.IntVar(&f.jobs, "jobs", scenario.DefaultJobs(), "concurrent trials (1 = sequential legacy path; results are identical at any value)")
	fs.StringVar(&f.records.Metrics, "metrics", "", "write a metrics snapshot to this file (.prom: Prometheus text; otherwise JSON)")
	fs.StringVar(&f.records.Manifest, "manifest", "", "write a run manifest (config, seed, metrics) to this file")
	fs.StringVar(&f.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.memprofile, "memprofile", "", "write an allocation profile to this file at exit")
	return f
}

// run executes one parsed invocation. -list, -describe and an invalid
// -scenario finish before the profiles and the tracer start; those
// then stop on every path, their errors surfacing only when the run
// succeeded.
func (f *flags) run(tool string, fs *flag.FlagSet, composes map[string]bool, plan Plan, env *Env) (err error) {
	switch {
	case f.list:
		_, err := io.WriteString(env.Stdout, scenario.ListText())
		return err
	case f.describe != "":
		text, err := scenario.Describe(f.describe)
		if err != nil {
			return err
		}
		_, err = io.WriteString(env.Stdout, text)
		return err
	}
	var specs []scenario.Spec
	if f.scenario != "" {
		spec, err := f.resolve(fs, composes)
		if err != nil {
			return err
		}
		specs = []scenario.Spec{spec}
	}

	stopProfiles, err := startProfiles(f.cpuprofile, f.memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if e := stopProfiles(); err == nil {
			err = e
		}
	}()
	tracer, closeTrace, err := observe(f.trace, f.progress, f.interval, env.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if e := closeTrace(); err == nil {
			err = e
		}
	}()
	env.Jobs, env.Trace = f.jobs, tracer
	if f.records != (Records{}) {
		env.Metrics = metrics.NewRegistry()
	}
	env.Manifest = metrics.NewManifest(tool, 0)
	start := time.Now()

	if f.scenario == "" {
		if specs, err = plan(env); err != nil {
			return err
		}
		for i := range specs {
			specs[i].Jobs = env.Jobs
		}
	}
	var results []*scenario.Result
	for _, s := range specs {
		s.Metrics, s.Trace = env.Metrics, env.Trace
		res, err := scenario.ExecuteRecorded(context.Background(), s, env.Events)
		if err != nil {
			return err
		}
		if err := res.Render(env.Stdout, env.Render); err != nil {
			return err
		}
		if env.After != nil {
			if err := env.After(res); err != nil {
				return err
			}
		}
		results = append(results, res)
	}
	if env.Metrics == nil {
		return nil
	}
	fillManifest(env.Manifest, results)
	return f.records.Write(env.Stderr, env.Metrics, env.Manifest, start)
}

// resolve returns the -scenario spec, with -jobs applied when set
// explicitly. Any other flag the command owns, unless it composes,
// conflicts: silently ignoring `-scenario fig5 -runs 3` would run a
// different experiment than the user asked for.
func (f *flags) resolve(fs *flag.FlagSet, composes map[string]bool) (scenario.Spec, error) {
	var conflict error
	jobsSet := false
	fs.Visit(func(fl *flag.Flag) {
		jobsSet = jobsSet || fl.Name == "jobs"
		if !composes[fl.Name] && conflict == nil {
			conflict = fmt.Errorf("-%s conflicts with -scenario (the spec defines the experiment; edit or copy it instead)", fl.Name)
		}
	})
	if conflict != nil {
		return scenario.Spec{}, conflict
	}
	spec, err := scenario.Resolve(f.scenario)
	if err != nil {
		return scenario.Spec{}, err
	}
	if jobsSet {
		spec.Jobs = f.jobs
	}
	return spec, nil
}

// fillManifest records in man what the executed specs define: the seed,
// predictor and program of the first (a plan's specs share them), the
// Welch t trajectory when the run was a single case, and in Config the
// registry names and canonical hashes (Spec.Hash) of every spec, comma
// separated in execution order. A run without specs leaves man as its
// mode filled it in.
func fillManifest(man *metrics.Manifest, results []*scenario.Result) {
	if len(results) == 0 {
		return
	}
	first := results[0]
	man.Seed = first.Spec.Seed
	man.Predictor = first.Spec.Canonical().Predictor
	if first.Sim != nil {
		man.Program = first.Sim.Program
		man.SimCycles = first.Sim.Run.Cycles
	}
	if len(results) == 1 && len(first.Cases) == 1 {
		man.TTrajectory = first.Cases[0].TTrajectory
	}
	var names, hashes []string
	for _, res := range results {
		if res.Spec.Name != "" {
			names = append(names, res.Spec.Name)
		}
		hashes = append(hashes, res.Spec.Hash())
	}
	if len(names) > 0 {
		man.Config["scenario"] = strings.Join(names, ",")
	}
	man.Config["spec_sha256"] = strings.Join(hashes, ",")
}

// Records are the -metrics and -manifest destinations; an empty path
// writes nothing.
type Records struct {
	Metrics, Manifest string
}

// Write writes reg's snapshot to r.Metrics (Prometheus text for a .prom
// path, JSON otherwise) and man, finished against reg and start, to
// r.Manifest, confirming each file on w.
func (r Records) Write(w io.Writer, reg *metrics.Registry, man *metrics.Manifest, start time.Time) error {
	if r.Metrics != "" {
		if err := metrics.WriteFile(reg, r.Metrics); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: wrote %s\n", man.Tool, r.Metrics)
	}
	if r.Manifest != "" {
		man.Finish(reg, start)
		if err := man.WriteFile(r.Manifest); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: wrote %s\n", man.Tool, r.Manifest)
	}
	return nil
}

// observe builds the tracer -progress and -trace request: a Chrome
// trace-event file (JSONL for a .jsonl path) and a live renderer on
// stderr. The tracer is nil when neither is set; the close function,
// never nil, flushes and closes every sink.
func observe(path string, progress bool, interval time.Duration, stderr io.Writer) (*obs.Tracer, func() error, error) {
	var sinks []obs.Sink
	if path != "" {
		file, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		if strings.HasSuffix(path, ".jsonl") {
			sinks = append(sinks, obs.NewJSONLSink(file))
		} else {
			sinks = append(sinks, obs.NewChromeSink(file))
		}
	}
	if progress {
		sinks = append(sinks, obs.NewProgress(stderr, interval))
	}
	if len(sinks) == 0 {
		return nil, func() error { return nil }, nil
	}
	t := obs.New(sinks...)
	return t, t.Close, nil
}

// startProfiles begins the -cpuprofile capture and returns the function
// that ends it and writes the -memprofile allocation profile.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		// Settle the heap so in-use numbers reflect live objects; the
		// allocs profile keeps cumulative counts either way.
		runtime.GC()
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
