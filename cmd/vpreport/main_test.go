package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain runs the command itself when the test binary is started
// under the name "vpreport", so tests can check its exit status.
func TestMain(m *testing.M) {
	if os.Args[0] == "vpreport" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// vpreport runs the command with args in a child process and returns
// its combined output and exit error.
func vpreport(t *testing.T, args ...string) ([]byte, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Args[0] = "vpreport"
	return cmd.CombinedOutput()
}

// TestScenarioObservability: -metrics and -manifest are infrastructure
// flags that compose with -scenario, as in vpattack; the scenario run
// writes both files.
func TestScenarioObservability(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "m.json")
	manifestPath := filepath.Join(dir, "r.json")
	out, err := vpreport(t, "-scenario", "cachebench-aa-aal-vu-line",
		"-metrics", metricsPath, "-manifest", manifestPath)
	if err != nil {
		t.Fatalf("vpreport: %v\n%s", err, out)
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
