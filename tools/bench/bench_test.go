package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"vpsec/internal/obs"
)

// declaration is the part of BENCHMARK.json the harness must agree with.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func loadDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tiny is the fast tests' input size: 3 specs, 5 cases and 100 hot
// requests.
var tiny = sizes{
	specs:       []string{"train-test-timing-lvp", "test-hit-timing-lvp", "train-test-persistent-novp"},
	cases:       5,
	hotRequests: 100,
}

// runTiny runs one workload on the tiny inputs and fails the test on
// any error or failed check.
func runTiny(t *testing.T, name string, trace bool) *report {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seconds: 1e-3, trace: trace, size: tiny, inProcess: true}
	rep, _, err := run(w, cfg, pins{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !rep.correct() {
		t.Fatalf("%s: %d of %d operations failed: %v", name, rep.failed, rep.attempted, rep.failures)
	}
	if rep.passes != minPasses {
		t.Errorf("%s: %d timed passes, want %d", name, rep.passes, minPasses)
	}
	if _, err := rep.result(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	return rep
}

// checkSchema compares emitted metrics with the declared ones: the
// same name set, the same units, and valid names and directions.
func checkSchema(t *testing.T, kind string, got []metric, want []declaredMetric) {
	t.Helper()
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := map[string]string{}
	for _, m := range got {
		if _, dup := units[m.name]; dup {
			t.Errorf("%s metric %s emitted twice", kind, m.name)
		}
		units[m.name] = m.unit
	}
	for _, d := range want {
		if !valid.MatchString(d.Name) || d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s metric %+v: bad name, unit or direction", kind, d)
		}
		u, ok := units[d.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s is declared but not emitted", kind, d.Name)
		case u != d.Unit:
			t.Errorf("%s metric %s emitted in %s, declared in %s", kind, d.Name, u, d.Unit)
		}
		delete(units, d.Name)
	}
	for n := range units {
		t.Errorf("%s metric %s is emitted but not declared", kind, n)
	}
}

// TestWorkloads runs every workload's passes on the tiny inputs, and
// checks that each emits exactly the declared end-to-end metrics and,
// traced, exactly the declared per-layer metrics.
func TestWorkloads(t *testing.T) {
	d := loadDeclaration(t)
	if d.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, harness default %d", d.RunSeconds, defaultSeconds)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, d.Workloads[i].Name, w.name)
		}
		// The per-layer set is the same for every workload (the probes
		// cover every layer), so one traced workload checks it.
		traced := w.name == "registry-sweep"
		rep := runTiny(t, w.name, traced)
		checkSchema(t, w.name+" end-to-end", rep.e2e, d.EndToEnd)
		if traced {
			checkSchema(t, w.name+" per-layer", rep.layer, d.PerLayer)
		}
	}
}

// TestLedgerCountsMismatches checks that a pass disagreeing with an
// earlier one is a failed operation.
func TestLedgerCountsMismatches(t *testing.T) {
	rep := &report{}
	led := &ledger{counts: map[string]uint64{}}
	led.observe(rep, "a", "d1", map[string]uint64{"n": 1})
	led.observe(rep, "b", "d1", map[string]uint64{"n": 1})
	if !rep.correct() {
		t.Fatalf("identical passes failed: %v", rep.failures)
	}
	led.observe(rep, "c", "d2", map[string]uint64{"n": 2})
	if rep.failed != 2 {
		t.Errorf("digest and count mismatch: %d failures, want 2", rep.failed)
	}
	led.verify(rep, pin{Digest: "d1", Counts: map[string]uint64{"n": 3}}, "pinned")
	if rep.failed != 3 {
		t.Errorf("pinned count mismatch: %d failures, want 3", rep.failed)
	}
}

// TestSpanSelfTime checks self times, the adoption of parentless spans
// by the enclosing span on their track, and overlapping worker lanes.
func TestSpanSelfTime(t *testing.T) {
	s := newSpanSink()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	emit := func(ph byte, id, parent uint64, tid int, name string, at int) {
		s.Emit(obs.Event{TS: ms(at), Ph: ph, Span: id, Parent: parent, TID: tid, Name: name})
	}
	emit(obs.PhaseBegin, 1, 0, 0, "pass", 0)
	emit(obs.PhaseBegin, 2, 1, 0, "execute", 10)
	emit(obs.PhaseBegin, 3, 0, 0, "map", 20) // parentless: adopted by execute
	emit(obs.PhaseBegin, 4, 3, 1, "worker", 20)
	emit(obs.PhaseBegin, 5, 3, 2, "worker", 25)
	emit(obs.PhaseEnd, 4, 0, 1, "worker", 60)
	emit(obs.PhaseEnd, 5, 0, 2, "worker", 70)
	emit(obs.PhaseEnd, 3, 0, 0, "map", 70)
	emit(obs.PhaseEnd, 2, 0, 0, "execute", 80)
	emit(obs.PhaseEnd, 1, 0, 0, "pass", 100)
	st := s.analyse()
	for name, want := range map[string]time.Duration{"execute": ms(20), "map": 0, "worker": ms(85)} {
		if st.self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, st.self[name], want)
		}
	}
	if st.wall != ms(100) || st.covered != ms(70) {
		t.Errorf("wall %v covered %v, want 100ms and 70ms", st.wall, st.covered)
	}
}
