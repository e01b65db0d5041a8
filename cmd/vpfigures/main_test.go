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

// run drives vpfigures in-process through the entry main uses.
func run(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = scencli.Main(command, args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestLegacyMatchesScenario: -fig 8 and its figure spec render
// byte-identically, in ASCII and with -csv, which composes with
// -scenario.
func TestLegacyMatchesScenario(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "fig8.json")
	if err := os.WriteFile(spec, []byte(`{"kind":"figure","category":"Test + Hit","runs":5,"seed":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{nil, {"-csv"}} {
		code, legacy, stderr := run(append([]string{"-jobs", "2", "-fig", "8", "-runs", "5"}, extra...)...)
		if code != 0 {
			t.Fatalf("legacy %v: exit %d\n%s", extra, code, stderr)
		}
		code, scen, stderr := run(append([]string{"-jobs", "2", "-scenario", spec}, extra...)...)
		if code != 0 {
			t.Fatalf("scenario %v: exit %d\n%s", extra, code, stderr)
		}
		if legacy != scen {
			t.Fatalf("%v: legacy and scenario renders differ:\n--- legacy\n%s--- scenario\n%s", extra, legacy, scen)
		}
	}
}

// TestFig7Golden: the RSA figure, in ASCII and with -csv, is pinned by
// the goldens under testdata.
func TestFig7Golden(t *testing.T) {
	for golden, args := range map[string][]string{
		"fig7.golden":     {"-fig", "7", "-seed", "1"},
		"fig7-csv.golden": {"-fig", "7", "-seed", "1", "-csv"},
	} {
		code, stdout, stderr := run(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, stderr)
		}
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if stdout != string(want) {
			t.Errorf("%v drifted from testdata/%s:\n%s", args, golden, stdout)
		}
	}
}

// TestScenarioConflict: an experiment flag next to -scenario is an
// error naming the flag, and nothing runs.
func TestScenarioConflict(t *testing.T) {
	code, stdout, stderr := run("-scenario", "fig5", "-runs", "3")
	if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "vpfigures: -runs conflicts with -scenario") {
		t.Fatalf("exit %d stdout %q stderr %q; want 1, nothing, a -runs conflict", code, stdout, stderr)
	}
}

// TestScenarioManifest: a -scenario manifest names the figure spec that
// ran, not the -fig default.
func TestScenarioManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if code, _, stderr := run("-jobs", "2", "-scenario", "fig8", "-manifest", path); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man metrics.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatalf("manifest: %v\n%s", err, data)
	}
	spec, _ := scenario.Lookup("fig8")
	want := map[string]string{"scenario": "fig8", "spec_sha256": spec.Hash()}
	if man.Tool != "vpfigures" || man.Predictor != "lvp" || man.Seed != 1 || !maps.Equal(man.Config, want) {
		t.Errorf("manifest tool %q predictor %q seed %d config %v; want vpfigures, lvp, 1, %v",
			man.Tool, man.Predictor, man.Seed, man.Config, want)
	}
}

// TestUnknownScenario: a bad -scenario exits 1 with one error line.
func TestUnknownScenario(t *testing.T) {
	code, stdout, stderr := run("-scenario", "no-such-scenario")
	if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "vpfigures: ") {
		t.Fatalf("exit %d stdout %q stderr %q; want 1, nothing, one vpfigures: line", code, stdout, stderr)
	}
}
