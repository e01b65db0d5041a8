package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vpsec/cmd/internal/scencli"
)

// run drives vpreport in-process through the entry main uses.
func run(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = scencli.Main(command, args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestScenarioObservability: -metrics and -manifest compose with
// -scenario, as in every scenario command; the scenario run writes
// both files.
func TestScenarioObservability(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "m.json")
	manifestPath := filepath.Join(dir, "r.json")
	code, _, stderr := run("-scenario", "cachebench-aa-aal-vu-line",
		"-metrics", metricsPath, "-manifest", manifestPath)
	if code != 0 {
		t.Fatalf("vpreport: exit %d\n%s", code, stderr)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics snapshot: %v\n%s", err, data)
	}
	var man struct {
		Tool   string            `json:"tool"`
		Config map[string]string `json:"config"`
	}
	data, err = os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatalf("manifest: %v\n%s", err, data)
	}
	if man.Tool != "vpreport" || man.Config["scenario"] != "cachebench-aa-aal-vu-line" {
		t.Errorf("manifest tool %q scenario %q, want vpreport and the scenario name",
			man.Tool, man.Config["scenario"])
	}
}

// TestUnknownScenario: a bad -scenario exits 1 with one error line.
func TestUnknownScenario(t *testing.T) {
	code, stdout, stderr := run("-scenario", "no-such-scenario")
	if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "vpreport: ") {
		t.Fatalf("exit %d stdout %q stderr %q; want 1, nothing, one vpreport: line", code, stdout, stderr)
	}
}
