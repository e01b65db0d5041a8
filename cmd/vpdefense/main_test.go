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

// run drives vpdefense in-process through the entry main uses.
func run(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = scencli.Main(command, args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestScenarioManifest: a -scenario manifest describes the defended
// case that ran — its predictor, seed, name and hash — not the
// sweep/matrix flag defaults.
func TestScenarioManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if code, _, stderr := run("-jobs", "2", "-scenario", "defense-r9-test-hit", "-manifest", path); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	man := readManifest(t, path)
	spec, _ := scenario.Lookup("defense-r9-test-hit")
	want := map[string]string{"scenario": "defense-r9-test-hit", "spec_sha256": spec.Hash()}
	if man.Tool != "vpdefense" || man.Predictor != "lvp" || man.Seed != 1 || !maps.Equal(man.Config, want) {
		t.Errorf("manifest tool %q predictor %q seed %d config %v; want vpdefense, lvp, 1, %v",
			man.Tool, man.Predictor, man.Seed, man.Config, want)
	}
}

// TestLegacyManifest: the default run executes a sweep and a matrix;
// the manifest lists both spec hashes in order and, the specs being
// flag-built, no scenario name.
func TestLegacyManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if code, _, stderr := run("-jobs", "2", "-runs", "2", "-maxwindow", "2", "-manifest", path); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	man := readManifest(t, path)
	sweep := scenario.Spec{Kind: scenario.KindDefenseSweep, MaxWindow: 2, Runs: 2, Seed: 1}
	matrix := scenario.Spec{Kind: scenario.KindDefenseMatrix, Runs: 2, Seed: 1}
	want := map[string]string{"spec_sha256": sweep.Hash() + "," + matrix.Hash()}
	if man.Predictor != "lvp" || man.Seed != 1 || !maps.Equal(man.Config, want) {
		t.Errorf("manifest predictor %q seed %d config %v; want lvp, 1, %v", man.Predictor, man.Seed, man.Config, want)
	}
}

// TestStrategyCatalog: the catalog modes run without a spec, and
// their whole output — mechanism tokens, hook-class labels, summaries
// and the named tables — is pinned by the goldens under testdata.
func TestStrategyCatalog(t *testing.T) {
	for golden, args := range map[string][]string{
		"list-strategies.golden":   {"-list-strategies"},
		"describe-strategy.golden": {"-describe-strategy", "A+R(5)+recompute+flush+isolate"},
	} {
		code, stdout, stderr := run(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d stderr %q", args, code, stderr)
		}
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if stdout != string(want) {
			t.Errorf("%v drifted from testdata/%s:\n%s", args, golden, stdout)
		}
	}
	code, _, stderr := run("-describe-strategy", "Q(1)")
	if code != 1 || !strings.HasPrefix(stderr, "vpdefense: ") {
		t.Fatalf("unknown strategy: exit %d stderr %q; want 1 and a vpdefense: line", code, stderr)
	}
}

// TestUnknownScenario: a bad -scenario exits 1 with one error line.
func TestUnknownScenario(t *testing.T) {
	code, stdout, stderr := run("-scenario", "no-such-scenario")
	if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "vpdefense: ") {
		t.Fatalf("exit %d stdout %q stderr %q; want 1, nothing, one vpdefense: line", code, stdout, stderr)
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
