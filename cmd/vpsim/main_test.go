package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vpsec/cmd/internal/scencli"
	"vpsec/internal/scenario"
)

const hello = "../../examples/progs/hello.vasm"

// run drives vpsim in-process through the entry main uses.
func run(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = scencli.Main(command, args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestLegacyMatchesScenario: a program run and the example spec
// examples/scenarios/fcm-sim.json that spells it render and export
// metrics byte-identically.
func TestLegacyMatchesScenario(t *testing.T) {
	dir := t.TempDir()
	spec, err := scenario.LoadFile("../../examples/scenarios/fcm-sim.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Program = hello // the example's path is relative to the repository root
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "fcm-sim.json")
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	legacyMetrics, scenMetrics := filepath.Join(dir, "legacy.json"), filepath.Join(dir, "scen.json")
	code, legacy, stderr := run("-predictor", "fcm", "-scheme", "addr", "-confidence", "3", "-seed", "2",
		"-metrics", legacyMetrics, hello)
	if code != 0 {
		t.Fatalf("legacy: exit %d\n%s", code, stderr)
	}
	code, scen, stderr := run("-scenario", specPath, "-metrics", scenMetrics)
	if code != 0 {
		t.Fatalf("scenario: exit %d\n%s", code, stderr)
	}
	if legacy != scen || !strings.HasPrefix(legacy, "program   : "+hello) {
		t.Fatalf("renders differ or miss the summary:\n--- legacy\n%s--- scenario\n%s", legacy, scen)
	}
	a, err := os.ReadFile(legacyMetrics)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(scenMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("metrics exports differ:\n--- legacy\n%s--- scenario\n%s", a, b)
	}
}

// TestMetricsFormat: the -metrics extension picks the format, and the
// confirmation goes to stderr, leaving stdout to the results.
func TestMetricsFormat(t *testing.T) {
	dir := t.TempDir()
	prom, js := filepath.Join(dir, "m.prom"), filepath.Join(dir, "m.json")
	_, plain, _ := run(hello)
	for _, path := range []string{prom, js} {
		code, stdout, stderr := run("-metrics", path, hello)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", path, code, stderr)
		}
		if stdout != plain || stderr != "vpsim: wrote "+path+"\n" {
			t.Fatalf("%s: stdout %q stderr %q; want the plain run's stdout and one confirmation", path, stdout, stderr)
		}
	}
	data, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# HELP vpsec_") {
		t.Errorf("m.prom is not Prometheus text:\n%.200s", data)
	}
	data, err = os.ReadFile(js)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil || snap.Counters["cpu.cycles"] == 0 {
		t.Errorf("m.json: %v, cpu.cycles %d\n%.200s", err, snap.Counters["cpu.cycles"], data)
	}
}

// TestPipelineViews: -pipeview and -regs append to the summary on
// stdout; -kanata writes its file and confirms on stderr.
func TestPipelineViews(t *testing.T) {
	kanata := filepath.Join(t.TempDir(), "k.log")
	_, plain, _ := run(hello)
	code, stdout, stderr := run("-pipeview", "4", "-regs", "-kanata", kanata, hello)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if !strings.HasPrefix(stdout, plain+"\n") || !strings.Contains(stdout, "  r1 ") {
		t.Errorf("stdout does not extend the summary with the views:\n%s", stdout)
	}
	if !strings.HasPrefix(stderr, "vpsim: wrote "+kanata+" (") {
		t.Errorf("stderr %q, want the kanata confirmation", stderr)
	}
	if data, err := os.ReadFile(kanata); err != nil || !strings.HasPrefix(string(data), "Kanata") {
		t.Errorf("kanata file: %v\n%.100s", err, data)
	}
}

// TestMemTrace: -memtrace prints every memory access to the command's
// stdout, in pipeline order, ahead of the run summary.
func TestMemTrace(t *testing.T) {
	const prog = "../../examples/progs/pointer-chase.vasm"
	_, plain, _ := run(prog)
	code, stdout, stderr := run("-memtrace", prog)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	accesses, ok := strings.CutSuffix(stdout, plain)
	if !ok || strings.Count(plain, "\n") != 6 {
		t.Fatalf("stdout does not end with the 6-line summary:\n%s", stdout)
	}
	lines := strings.Split(strings.TrimSuffix(accesses, "\n"), "\n")
	if len(lines) != 73 || lines[0] != "2: issue flush pc=3 paddr=0x10000" {
		t.Fatalf("got %d access lines starting %q, want 73 starting with the first flush's issue:\n%s",
			len(lines), lines[0], accesses)
	}
}

// TestUsage: a run without a program is a usage error, exit 2.
func TestUsage(t *testing.T) {
	code, stdout, stderr := run()
	if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "usage: vpsim") {
		t.Fatalf("exit %d stdout %q stderr %q; want 2 and the usage line", code, stdout, stderr)
	}
}

// TestUnknownScenario: a bad -scenario exits 1 with one error line.
func TestUnknownScenario(t *testing.T) {
	code, stdout, stderr := run("-scenario", "no-such-scenario")
	if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "vpsim: ") {
		t.Fatalf("exit %d stdout %q stderr %q; want 1, nothing, one vpsim: line", code, stdout, stderr)
	}
}
