package report

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"vpsec/internal/metrics"
)

func TestGenerateQuick(t *testing.T) {
	cfg := Config{Runs: 10, Seed: 3, Quick: true}
	ts := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	r, err := Generate(context.Background(), cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	if r.PatternsTotal != 576 || len(r.Variants) != 12 {
		t.Errorf("model summary wrong: %d patterns, %d variants", r.PatternsTotal, len(r.Variants))
	}
	// Table III: 6 TW pairs + 3 persistent pairs = 18 cells.
	if len(r.TableIII) != 18 {
		t.Errorf("Table III cells = %d, want 18", len(r.TableIII))
	}
	if len(r.Volatile) != 6 {
		t.Errorf("volatile cells = %d, want 6", len(r.Volatile))
	}
	if len(r.RowResults) != 12 {
		t.Errorf("Table II row results = %d, want 12", len(r.RowResults))
	}
	for _, c := range r.RowResults {
		if !c.Effective {
			t.Errorf("row %s not effective (p=%.4f)", c.Category, c.P)
		}
	}
	if len(r.Sweeps) != 0 || len(r.DefenseMatrix) != 0 {
		t.Error("quick mode should skip the defense sections")
	}
	if !r.RSA.ResultOK || r.RSA.BitSuccess < 0.9 {
		t.Errorf("RSA section: %+v", r.RSA)
	}
	if len(r.Perf) == 0 || r.Perf[0].Speedup <= 1 {
		t.Errorf("perf section: %+v", r.Perf)
	}

	// Every VP cell effective, every no-VP cell not (the headline).
	for _, c := range append(append([]AttackCell(nil), r.TableIII...), r.Volatile...) {
		if c.Predictor == "none" && c.Effective {
			t.Errorf("no-VP cell effective: %+v", c)
		}
		if c.Predictor == "lvp" && !c.Effective {
			t.Errorf("LVP cell ineffective: %+v", c)
		}
	}
}

func TestRenderings(t *testing.T) {
	cfg := Config{Runs: 8, Seed: 5, Quick: true}
	r, err := Generate(context.Background(), cfg, time.Unix(0, 0).UTC())
	if err != nil {
		t.Fatal(err)
	}
	md := r.Markdown()
	for _, want := range []string{
		"# Value Predictor Security",
		"## Table III",
		"## Volatile channel",
		"## RSA key recovery",
		"## Performance",
		"Train + Test",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	js, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.PatternsTotal != r.PatternsTotal || len(back.TableIII) != len(r.TableIII) {
		t.Error("JSON round-trip lost data")
	}
}

// TestMetricsDeterministic is the observability contract: two
// same-seed runs must export byte-identical metrics JSON, so a metrics
// diff between two artifacts always means a real behavioral change,
// never exporter noise.
func TestMetricsDeterministic(t *testing.T) {
	ts := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	dump := func() []byte {
		reg := metrics.NewRegistry()
		cfg := Config{Runs: 4, Seed: 9, Quick: true, Metrics: reg}
		if _, err := Generate(context.Background(), cfg, ts); err != nil {
			t.Fatal(err)
		}
		out, err := reg.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := dump(), dump()
	if len(a) == 0 || string(a) == "{}" {
		t.Fatalf("metrics dump empty: %s", a)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("same-seed metrics dumps differ:\n%s\n---\n%s", a, b)
	}
	// The dump must cover every layer the report exercises.
	var snap metrics.Snapshot
	if err := json.Unmarshal(a, &snap); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cpu.cycles", "mem.l1d.misses", "attacks.trials"} {
		if snap.Counters[want] == 0 {
			t.Errorf("counter %s is zero in the report dump", want)
		}
	}
	if snap.Histograms["attacks.trial.cycles"].Count == 0 {
		t.Error("attacks.trial.cycles histogram empty")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	c.setDefaults()
	if c.Runs != 100 || c.DefenseRuns != 60 || c.Predictor == "" {
		t.Errorf("defaults: %+v", c)
	}
}

// TestGenerateFull exercises the defense sections too (small trial
// counts keep it tractable; the sweeps use median-of-three p-values
// internally, so they still land on the paper's windows).
func TestGenerateFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full report generation is slow")
	}
	cfg := Config{Runs: 8, DefenseRuns: 25, Seed: 11}
	r, err := Generate(context.Background(), cfg, time.Unix(1e9, 0).UTC())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sweeps) == 0 || len(r.DefenseMatrix) == 0 {
		t.Fatal("full mode should include the defense sections")
	}
	if r.MinWindowTrainTest != 3 {
		t.Errorf("Train+Test minimal window = %d, want 3", r.MinWindowTrainTest)
	}
	if !r.CombinedDefends {
		t.Error("combined A+R+D should defend everything")
	}
	if len(r.Ablations) != 7 {
		t.Errorf("ablations = %d, want 7", len(r.Ablations))
	}
	for _, c := range r.Ablations {
		wantEffective := !strings.Contains(c.Category, "should fail")
		if c.Effective != wantEffective {
			t.Errorf("ablation %q: effective=%v, want %v (p=%.4f)", c.Category, c.Effective, wantEffective, c.P)
		}
	}
	md := r.Markdown()
	for _, want := range []string{"R-type window sweeps", "Defense matrix", "Minimal secure windows"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

func TestReportIncludesLocalityAudit(t *testing.T) {
	cfg := Config{Quick: true, Runs: 6, Seed: 5}
	r, err := Generate(context.Background(), cfg, time.Unix(1e9, 0).UTC())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Audit) == 0 {
		t.Fatal("report should include the RSA victim's locality audit")
	}
	var families []string
	for _, a := range r.Audit {
		families = append(families, a.Family)
	}
	md := r.Markdown()
	if !strings.Contains(md, "locality audit") {
		t.Error("markdown missing the audit section")
	}
	// The audit must surface both sides of the Fig. 7 asymmetry: a
	// last-value-predictable (dummy) load and a context-only (swap) load.
	hasLV, hasCtx := false, false
	for _, f := range families {
		if f == "last-value" {
			hasLV = true
		}
		if f == "context" {
			hasCtx = true
		}
	}
	if !hasLV || !hasCtx {
		t.Errorf("audit families = %v, want both last-value and context", families)
	}
}
