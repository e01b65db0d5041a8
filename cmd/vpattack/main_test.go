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
	"vpsec/internal/attacks"
	"vpsec/internal/metrics"
	"vpsec/internal/scenario"
)

// run drives vpattack in-process through the entry main uses.
func run(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = scencli.Main(command, args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestLegacyMatchesScenario: each flag spelling and its spec file
// render byte-identically. A -defense stack fills the spec's stack, so
// "A+R(5)" is the history-flavor A then R(5), not the catalog's
// A-fixed+R(5).
func TestLegacyMatchesScenario(t *testing.T) {
	for _, c := range []struct {
		name  string
		flags []string
		spec  string
	}{
		{"table3", []string{"-table3", "-runs", "5"},
			`{"kind":"table3","predictor":"lvp","confidence":4,"runs":5,"seed":1}`},
		{"defense D", []string{"-attack", "Test + Hit", "-runs", "5", "-defense", "D"},
			`{"kind":"case","category":"Test + Hit","runs":5,"seed":1,"defense":{"strategy":"D"}}`},
		{"defense A+R(5)", []string{"-attack", "Test + Hit", "-runs", "5", "-defense", "A+R(5)"},
			`{"kind":"case","category":"Test + Hit","runs":5,"seed":1,"defense":{"stack":"A+R(5)"}}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := filepath.Join(t.TempDir(), "spec.json")
			if err := os.WriteFile(spec, []byte(c.spec), 0o644); err != nil {
				t.Fatal(err)
			}
			code, legacy, stderr := run(append([]string{"-jobs", "2"}, c.flags...)...)
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
		})
	}
}

// TestUnknownDefense: a -defense stack with an unknown mechanism exits
// 1 with one error line that lists the mechanisms.
func TestUnknownDefense(t *testing.T) {
	code, stdout, stderr := run("-attack", "Test + Hit", "-runs", "2", "-defense", "Q(1)")
	if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "vpattack: ") {
		t.Fatalf("exit %d stdout %q stderr %q; want 1, nothing, one vpattack: line", code, stdout, stderr)
	}
	for _, d := range attacks.Mechanisms() {
		if !strings.Contains(stderr, d.Token) {
			t.Errorf("error %q does not list mechanism %q", stderr, d.Token)
		}
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
