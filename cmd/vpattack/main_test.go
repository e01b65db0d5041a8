package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vpsec/cmd/internal/scencli"
	"vpsec/internal/metrics"
	"vpsec/internal/scenario"
)

// run drives vpattack in-process through the entry main uses.
func run(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = scencli.Main(command, args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestLegacyMatchesScenario: the flag spelling of Table III and its
// spec render byte-identically.
func TestLegacyMatchesScenario(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "table3.json")
	if err := os.WriteFile(spec, []byte(`{"kind":"table3","predictor":"lvp","confidence":4,"runs":5,"seed":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, legacy, stderr := run("-jobs", "2", "-table3", "-runs", "5")
	if code != 0 {
		t.Fatalf("legacy: exit %d\n%s", code, stderr)
	}
	code, scen, stderr := run("-jobs", "2", "-scenario", spec)
	if code != 0 {
		t.Fatalf("scenario: exit %d\n%s", code, stderr)
	}
	if legacy != scen {
		t.Fatalf("legacy and scenario renders differ:\n--- legacy\n%s--- scenario\n%s", legacy, scen)
	}
}

// TestScenarioManifest: a -scenario manifest describes the spec that
// ran — its predictor, seed, name and hash, and the case's t
// trajectory — not vpattack's flag defaults.
func TestScenarioManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if code, _, stderr := run("-jobs", "2", "-scenario", "test-hit-timing-vtage", "-manifest", path); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	man := readManifest(t, path)
	spec, _ := scenario.Lookup("test-hit-timing-vtage")
	want := map[string]string{"scenario": "test-hit-timing-vtage", "spec_sha256": spec.Hash()}
	if man.Tool != "vpattack" || man.Predictor != "vtage" || man.Seed != 1 || !maps.Equal(man.Config, want) {
		t.Errorf("manifest tool %q predictor %q seed %d config %v; want vpattack, vtage, 1, %v",
			man.Tool, man.Predictor, man.Seed, man.Config, want)
	}
	if len(man.TTrajectory) == 0 {
		t.Error("manifest has no t_trajectory for a single-case run")
	}
}

// TestUnknownScenario: a bad -scenario exits 1 with one error line.
func TestUnknownScenario(t *testing.T) {
	code, stdout, stderr := run("-scenario", "no-such-scenario")
	if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "vpattack: ") {
		t.Fatalf("exit %d stdout %q stderr %q; want 1, nothing, one vpattack: line", code, stdout, stderr)
	}
}

func readManifest(t *testing.T, path string) metrics.Manifest {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man metrics.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatalf("manifest: %v\n%s", err, data)
	}
	return man
}
