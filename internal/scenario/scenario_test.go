package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vpsec/internal/attacks"
	"vpsec/internal/core"
)

var update = flag.Bool("update", false, "rewrite the registry golden file")

// TestRegistryGolden pins every registered spec's canonical JSON in
// one golden file, so a change to the registry (a renamed scenario, a
// drifted default) shows up as a reviewable diff.
func TestRegistryGolden(t *testing.T) {
	got := registryJSON(t, All())
	if *update {
		if err := os.WriteFile(registryGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(registryGolden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/scenario -update` to regenerate)", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("registry drifted from %s (run `go test ./internal/scenario -update` and review the diff)", registryGolden)
	}
}

// registryGolden is the file TestRegistryGolden pins the registry in.
var registryGolden = filepath.Join("testdata", "registry.json")

// registryJSON renders specs as the registry golden holds them: one
// JSON array of their indented spec JSON.
func registryJSON(t *testing.T, specs []Spec) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, s := range specs {
		data, err := s.MarshalIndent()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if i > 0 {
			b.WriteString(",\n")
		}
		b.Write(data)
	}
	b.WriteString("\n]\n")
	return b.Bytes()
}

// TestRoundTrip marshals every registered spec and decodes it back:
// the decoded spec must compare equal and re-marshal byte-identically,
// so a spec file is a faithful, replayable experiment record.
func TestRoundTrip(t *testing.T) {
	for _, s := range All() {
		data, err := s.MarshalIndent()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		data2, err := back.MarshalIndent()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !bytes.Equal(data, data2) {
			t.Errorf("%s: round trip not byte-identical:\n%s\nvs\n%s", s.Name, data, data2)
		}
	}
}

// TestRegistryCoverage checks the registry covers the paper's
// evaluation matrix: both Table III predictors, all twelve Table II
// rows, every (category, channel) cell, and the defense sweeps.
func TestRegistryCoverage(t *testing.T) {
	names := map[string]bool{}
	for _, n := range Names() {
		names[n] = true
	}
	var want []string
	want = append(want, "table3-lvp", "table3-vtage",
		"fig5", "fig8", "defense-window-train-test", "defense-window-test-hit",
		"defense-window", "defense-matrix", "eviction-train-test",
		"noise-train-test", "conf-sweep-train-test",
		"smt-test-hit", "smt-train-test", "smt-fill-up")
	for i, v := range core.Reduce() {
		want = append(want, fmt.Sprintf("table2-row%02d-%s", i+1, catSlug(v.Category)))
	}
	for _, cat := range core.Categories() {
		for _, ch := range core.ChannelsFor(cat) {
			for _, pred := range []string{"novp", "lvp", "vtage"} {
				want = append(want, catSlug(cat)+"-"+chanSlug(ch)+"-"+pred)
			}
		}
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("expected registered scenario %q", n)
		}
	}
	if len(core.Reduce()) != 12 {
		t.Fatalf("Table II has %d rows, want 12", len(core.Reduce()))
	}
}

// TestValidateRejects covers the error paths a spec file can hit.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		s    Spec
	}{
		{"unknown kind", Spec{Kind: "bogus"}},
		{"unknown predictor", Spec{Kind: KindCase, Category: string(core.TrainTest), Predictor: "tage"}},
		{"unknown channel", Spec{Kind: KindCase, Category: string(core.TrainTest), Channel: "acoustic"}},
		{"unknown category", Spec{Kind: KindCase, Category: "Guess + Check"}},
		{"missing category", Spec{Kind: KindCase}},
		{"unknown variant", Spec{Kind: KindVariant, Variant: "nope"}},
		{"figure category", Spec{Kind: KindFigure, Category: string(core.FillUp)}},
		{"negative runs", Spec{Kind: KindCase, Category: string(core.TrainTest), Runs: -1}},
		{"strategy plus fields", Spec{Kind: KindCase, Category: string(core.TrainTest),
			Defense: &DefenseSpec{Strategy: "A", DType: true}}},
		{"unknown strategy", Spec{Kind: KindCase, Category: string(core.TrainTest),
			Defense: &DefenseSpec{Strategy: "B"}}},
		{"unknown matrix strategy", Spec{Kind: KindDefenseMatrix, Strategies: []string{"Q"}}},
		{"bad sweep category", Spec{Kind: KindDefenseSweep, Categories: []string{"x"}}},
		{"conf below 1", Spec{Kind: KindConfSweep, Category: string(core.TrainTest), Confidences: []int{0}}},
		{"sim without program", Spec{Kind: KindSim}},
		{"sim oracle predictor", Spec{Kind: KindSim, Program: "x.vasm", Predictor: "oracle-lvp"}},
		{"sim bad scheme", Spec{Kind: KindSim, Program: "x.vasm", Scheme: "hash"}},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.s)
		}
	}
}

// TestParseRejectsUnknownField: a typo'd knob must not silently run
// the default experiment.
func TestParseRejectsUnknownField(t *testing.T) {
	_, err := Parse([]byte(`{"kind":"case","category":"Train + Test","rnus":5}`))
	if err == nil || !strings.Contains(err.Error(), "rnus") {
		t.Fatalf("want unknown-field error, got %v", err)
	}
}

// TestDefaults pins the paper defaults every front-end derives its
// flags from.
func TestDefaults(t *testing.T) {
	d := Defaults()
	if d.Runs != 100 || d.Confidence != 4 || d.Seed != 1 ||
		d.Predictor != string(attacks.LVP) || d.Channel != core.TimingWindow.String() {
		t.Fatalf("Defaults drifted: %+v", d)
	}
	if DefaultDefenseRuns() != 60 {
		t.Fatalf("DefaultDefenseRuns = %d, want 60", DefaultDefenseRuns())
	}
	if DefaultJobs() < 1 {
		t.Fatalf("DefaultJobs = %d", DefaultJobs())
	}
}

// TestResolve maps names and files; unknown args must error with a
// pointer at -list.
func TestResolve(t *testing.T) {
	if _, err := Resolve("table3-lvp"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	s, _ := Lookup("fig5")
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "fig5" {
		t.Fatalf("Resolve(%s).Name = %q", path, got.Name)
	}
	if _, err := Resolve("no-such-scenario"); err == nil {
		t.Fatal("Resolve accepted an unknown name")
	}
}

// TestExampleSpecsLoad keeps the committed example spec files
// (examples/scenarios/) loadable: they are the documented on-ramp for
// user-written specs, so a Spec schema change that breaks them must
// update them in the same commit.
func TestExampleSpecsLoad(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "scenarios")
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no example specs in %s", dir)
	}
	for _, f := range files {
		if _, err := LoadFile(f); err != nil {
			t.Errorf("LoadFile(%s): %v", f, err)
		}
	}
}
