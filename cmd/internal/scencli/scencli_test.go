package scencli

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vpsec/internal/obs"
	"vpsec/internal/scenario"
)

// hello is the example program the test specs simulate: a sim run
// takes milliseconds, so every case can execute for real.
const hello = "../../../examples/progs/hello.vasm"

// testCommand stands in for a front-end: -runs defines the experiment,
// -csv is a presentation flag that composes with -scenario, and the
// plan compiles to a sim spec after handing env to inspect.
func testCommand(inspect func(*Env)) Command {
	return Command{
		Name: "tool",
		Flags: func(fs *flag.FlagSet, env *Env) Plan {
			fs.Int("runs", 100, "")
			fs.BoolVar(&env.Render.CSV, "csv", false, "")
			return func(env *Env) ([]scenario.Spec, error) {
				if inspect != nil {
					inspect(env)
				}
				return []scenario.Spec{{Kind: scenario.KindSim, Program: hello}}, nil
			}
		},
		Compose: []string{"csv"},
	}
}

// run drives cmd through Main and returns its exit status and output.
func run(cmd Command, args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = Main(cmd, args, &out, &errb)
	return code, out.String(), errb.String()
}

// specFile writes a sim spec to a temporary file and returns its path.
func specFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sim.json")
	spec := `{"kind":"sim","program":"` + hello + `"}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckConflicts: the shared flags and the command's presentation
// flags compose with -scenario; explicitly-set experiment flags do not.
func TestCheckConflicts(t *testing.T) {
	spec := specFile(t)
	cases := []struct {
		name     string
		args     []string // after -scenario <spec>; $DIR is a temporary directory
		conflict string   // "" means allowed
	}{
		{"scenario alone", nil, ""},
		{"progress composes", []string{"-progress"}, ""},
		{"progress interval composes", []string{"-progress", "-progress-interval", "1s"}, ""},
		{"trace composes", []string{"-trace", "$DIR/out.json"}, ""},
		{"trace jsonl composes", []string{"-trace", "$DIR/out.jsonl"}, ""},
		{"everything observable", []string{"-progress", "-trace", "$DIR/t.json"}, ""},
		{"infra composes", []string{"-jobs", "4", "-metrics", "$DIR/m.json", "-manifest", "$DIR/r.json"}, ""},
		{"infra and observability", []string{"-jobs", "4", "-progress", "-trace", "$DIR/t.json"}, ""},
		{"presentation composes", []string{"-csv"}, ""},
		{"profiles compose", []string{"-cpuprofile", "$DIR/cpu.out", "-memprofile", "$DIR/mem.out"}, ""},
		{"experiment flag conflicts", []string{"-runs", "3"}, "-runs"},
		{"conflict despite observability", []string{"-progress", "-runs", "3"}, "-runs"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-scenario", spec}
			for _, a := range c.args {
				args = append(args, strings.ReplaceAll(a, "$DIR", dir))
			}
			code, stdout, stderr := run(testCommand(nil), args...)
			if c.conflict == "" {
				if code != 0 {
					t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
				}
				if !strings.HasPrefix(stdout, "program   : "+hello) {
					t.Fatalf("stdout does not render the sim spec:\n%s", stdout)
				}
				return
			}
			if code != 1 {
				t.Fatalf("exit %d, want 1 for a conflict on %s", code, c.conflict)
			}
			if want := "tool: " + c.conflict + " conflicts with -scenario"; !strings.HasPrefix(stderr, want) {
				t.Fatalf("stderr %q, want prefix %q", stderr, want)
			}
			if stdout != "" {
				t.Fatalf("a conflict ran the spec anyway:\n%s", stdout)
			}
		})
	}
}

// TestObserveDisabled: with neither -progress nor -trace the plan sees
// a nil tracer — the zero-overhead path — and the run still closes
// cleanly.
func TestObserveDisabled(t *testing.T) {
	var tracer *obs.Tracer
	seen := false
	code, _, stderr := run(testCommand(func(env *Env) { tracer, seen = env.Trace, true }))
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	if !seen {
		t.Fatal("plan not called")
	}
	if tracer.Enabled() {
		t.Fatal("tracer enabled without -progress/-trace")
	}
}

// TestObserveTraceFile: -trace builds an enabled tracer and the file
// materializes at exit, in the format the extension selects, holding
// the scenario span of the executed spec.
func TestObserveTraceFile(t *testing.T) {
	for _, c := range []struct {
		file   string
		prefix string
	}{
		{"t.json", "["},  // Chrome trace-event array
		{"t.jsonl", "{"}, // one JSON object per line
	} {
		path := filepath.Join(t.TempDir(), c.file)
		var tracer *obs.Tracer
		code, _, stderr := run(testCommand(func(env *Env) { tracer = env.Trace }), "-trace", path)
		if code != 0 {
			t.Fatalf("%s: exit %d; stderr:\n%s", c.file, code, stderr)
		}
		if !tracer.Enabled() {
			t.Fatalf("%s: tracer disabled despite -trace", c.file)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), c.prefix) {
			t.Errorf("%s starts %q, want prefix %q", c.file, data[:1], c.prefix)
		}
		if !strings.Contains(string(data), `"scenario"`) {
			t.Errorf("%s holds no scenario span:\n%s", c.file, data)
		}
	}
}

// TestExitStatus: a flag parse error and a Usage exit 2, a run error
// exits 1 with one "<tool>: <err>" line, and -h exits 0.
func TestExitStatus(t *testing.T) {
	usage := Command{Name: "tool", Flags: func(*flag.FlagSet, *Env) Plan {
		return func(*Env) ([]scenario.Spec, error) { return nil, Usage("usage: tool [flags]") }
	}}
	for _, c := range []struct {
		name   string
		cmd    Command
		args   []string
		code   int
		stderr string // exact, when code is 1 or the command's usage line
	}{
		{"unknown flag", testCommand(nil), []string{"-nosuch"}, 2, ""},
		{"help", testCommand(nil), []string{"-h"}, 0, ""},
		{"usage", usage, nil, 2, "usage: tool [flags]\n"},
		{"bad spec", testCommand(nil), []string{"-scenario", "no-such-scenario"}, 1,
			`tool: scenario: "no-such-scenario" is neither a registered scenario nor a spec file (-list shows the registry)` + "\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := run(c.cmd, c.args...)
			if code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr)
			}
			if c.stderr != "" && stderr != c.stderr {
				t.Fatalf("stderr %q, want %q", stderr, c.stderr)
			}
			if stdout != "" {
				t.Fatalf("stdout %q, want nothing", stdout)
			}
		})
	}
}
