package metrics

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cpu.commit.retired", "committed instructions")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Errorf("counter = %d, want 10", c.Value())
	}
	if r.Counter("cpu.commit.retired", "") != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("cpu.ipc", "instructions per cycle")
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %v", g.Value())
	}

	h := r.Histogram("mem.l1d.latency", "L1 latency", []float64{2, 4, 8})
	for _, v := range []float64{1, 3, 3, 9, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 116 {
		t.Errorf("hist count=%d sum=%v", h.Count(), h.Sum())
	}
	_, counts := h.Buckets()
	want := []uint64{1, 2, 0, 2} // <=2, <=4, <=8, +Inf
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], want[i])
		}
	}
}

func TestNameValidation(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "Upper.case", "a..b", "has space", "trailing.", "ümlaut"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q accepted", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
	// Kind clash panics.
	r.Counter("x.y", "")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind clash accepted")
			}
		}()
		r.Gauge("x.y", "")
	}()
	// Prometheus-name collision panics ("a.b" and "a-b" both → vpsec_a_b).
	r.Counter("a.b", "")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("prometheus collision accepted")
			}
		}()
		r.Counter("a-b", "")
	}()
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cpu.cycles", "")
	h := r.Histogram("attacks.trial.cycles", "", []float64{10, 20})
	c.Add(5)
	h.Observe(15)
	before := r.Snapshot()
	c.Add(7)
	h.Observe(5)
	h.Observe(25)
	r.Gauge("attacks.p", "").Set(0.01)
	after := r.Snapshot()

	d := after.Diff(before)
	if d.Counters["cpu.cycles"] != 7 {
		t.Errorf("counter diff = %d, want 7", d.Counters["cpu.cycles"])
	}
	dh := d.Histograms["attacks.trial.cycles"]
	if dh.Count != 2 || dh.Sum != 30 {
		t.Errorf("hist diff count=%d sum=%v", dh.Count, dh.Sum)
	}
	if got := dh.Counts; got[0] != 1 || got[1] != 0 || got[2] != 1 {
		t.Errorf("hist diff counts = %v", got)
	}
	if d.Gauges["attacks.p"] != 0.01 {
		t.Errorf("gauge in diff = %v", d.Gauges["attacks.p"])
	}
	// Snapshots are copies: mutating the registry must not change them.
	c.Add(100)
	if after.Counters["cpu.cycles"] != 12 {
		t.Error("snapshot aliased live counter")
	}
}

func TestJSONCanonical(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Register in different orders; export must not care.
		r.Counter("b.second", "").Add(2)
		r.Counter("a.first", "").Add(1)
		r.Gauge("z.gauge", "").Set(3.25)
		r.Histogram("m.h", "", []float64{1, 2}).Observe(1.5)
		return r
	}
	r2 := NewRegistry()
	r2.Histogram("m.h", "", []float64{1, 2}).Observe(1.5)
	r2.Gauge("z.gauge", "").Set(3.25)
	r2.Counter("a.first", "").Add(1)
	r2.Counter("b.second", "").Add(2)

	j1, err := build().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r2.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("JSON not canonical:\n%s\nvs\n%s", j1, j2)
	}
	if !strings.HasSuffix(string(j1), "\n") {
		t.Error("JSON export missing trailing newline")
	}
}

func TestNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("c.z", "")
	r.Counter("a.a", "")
	r.Gauge("b.m", "")
	names := r.Names()
	want := []string{"a.a", "b.m", "c.z"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

// LintPrometheusText is a promtool-style check of the text exposition
// format: every sample belongs to a family announced by exactly one
// # HELP and one # TYPE line, family names are valid, no duplicate
// series, and histogram buckets are cumulative.
func LintPrometheusText(t *testing.T, out string) {
	t.Helper()
	if !strings.HasSuffix(out, "\n") {
		t.Error("prometheus export must end with a newline")
	}
	typed := map[string]string{}
	helped := map[string]bool{}
	seenSeries := map[string]bool{}
	lastBucketCum := map[string]uint64{}
	validBase := func(s string) bool {
		for i, r := range s {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			case r >= '0' && r <= '9':
				if i == 0 {
					return false
				}
			default:
				return false
			}
		}
		return s != ""
	}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(fields) < 2 || !validBase(fields[0]) {
				t.Errorf("malformed HELP line: %q", line)
				continue
			}
			if helped[fields[0]] {
				t.Errorf("duplicate HELP for %s", fields[0])
			}
			helped[fields[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || !validBase(fields[0]) {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("unknown type %q in %q", fields[1], line)
			}
			if _, dup := typed[fields[0]]; dup {
				t.Errorf("duplicate TYPE for %s", fields[0])
			}
			typed[fields[0]] = fields[1]
		case line == "":
			t.Error("blank line in export")
		default:
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Errorf("malformed sample line: %q", line)
				continue
			}
			series, val := line[:sp], line[sp+1:]
			if seenSeries[series] {
				t.Errorf("duplicate series %q", series)
			}
			seenSeries[series] = true
			name := series
			if i := strings.IndexByte(series, '{'); i >= 0 {
				name = series[:i]
			}
			fam := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suf); base != name && typed[base] == "histogram" {
					fam = base
				}
			}
			if typed[fam] == "" || !helped[fam] {
				t.Errorf("sample %q before/without TYPE+HELP for %q", series, fam)
			}
			if strings.HasSuffix(name, "_bucket") && typed[fam] == "histogram" {
				cum, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					t.Errorf("bucket value %q not an integer", val)
					continue
				}
				if cum < lastBucketCum[fam] {
					t.Errorf("histogram %s buckets not cumulative: %d after %d", fam, cum, lastBucketCum[fam])
				}
				lastBucketCum[fam] = cum
			}
		}
	}
}

func TestPrometheusExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("cpu.commit.squashes", "pipeline squashes").Add(3)
	r.Gauge("cpu.ipc", "retired per cycle").Set(0.75)
	h := r.Histogram("attacks.trial.cycles", "per-trial simulated cycles", []float64{100, 1000})
	h.Observe(50)
	h.Observe(500)
	h.Observe(5000)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE vpsec_cpu_commit_squashes_total counter",
		"vpsec_cpu_commit_squashes_total 3",
		"# TYPE vpsec_cpu_ipc gauge",
		"vpsec_cpu_ipc 0.75",
		"# TYPE vpsec_attacks_trial_cycles histogram",
		`vpsec_attacks_trial_cycles_bucket{le="100"} 1`,
		`vpsec_attacks_trial_cycles_bucket{le="1000"} 2`,
		`vpsec_attacks_trial_cycles_bucket{le="+Inf"} 3`,
		"vpsec_attacks_trial_cycles_sum 5550",
		"vpsec_attacks_trial_cycles_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
	LintPrometheusText(t, out)
}

// TestWriteFileFormat: the path's extension picks the export format —
// Prometheus text for .prom, JSON for anything else.
func TestWriteFileFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("cpu.cycles", "simulated cycles").Add(5)
	dir := t.TempDir()
	for file, want := range map[string]string{
		"m.prom": "# HELP vpsec_cpu_cycles_total",
		"m.json": "{",
		"m.txt":  "{",
	} {
		path := dir + "/" + file
		if err := WriteFile(r, path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), want) {
			t.Errorf("%s starts %.30q, want %q", file, data, want)
		}
	}
}

func TestManifestFinish(t *testing.T) {
	r := NewRegistry()
	r.Counter("cpu.cycles", "").Add(1234)
	m := NewManifest("vpsim", 7)
	m.Config["predictor"] = "lvp"
	m.Finish(r, time.Now())
	if m.SimCycles != 1234 {
		t.Errorf("SimCycles = %d, want 1234 (recovered from cpu.cycles)", m.SimCycles)
	}
	if m.Metrics.Counters["cpu.cycles"] != 1234 {
		t.Error("manifest snapshot missing metrics")
	}
	path := t.TempDir() + "/manifest.json"
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestMerge checks the fold semantics: counters add, histograms merge
// bucket-wise, gauges take the source value, and names new to the
// destination arrive with the source's help text.
func TestMerge(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("cpu.cycles", "simulated cycles").Add(10)
	dst.Gauge("cpu.ipc", "ipc").Set(0.25)
	dst.Histogram("mem.l1d.latency", "lat", []float64{10, 100}).Observe(5)

	src := NewRegistry()
	src.Counter("cpu.cycles", "other help").Add(32)
	src.Counter("mem.l1d.hits", "cache hits").Add(7)
	src.Gauge("cpu.ipc", "ipc").Set(0.75)
	h := src.Histogram("mem.l1d.latency", "lat", []float64{10, 100})
	h.Observe(50)
	h.Observe(500)

	dst.Merge(src)
	if got := dst.Counter("cpu.cycles", "").Value(); got != 42 {
		t.Errorf("merged counter = %d, want 42", got)
	}
	if got := dst.Counter("mem.l1d.hits", "").Value(); got != 7 {
		t.Errorf("new counter = %d, want 7", got)
	}
	if got := dst.Gauge("cpu.ipc", "").Value(); got != 0.75 {
		t.Errorf("merged gauge = %v, want the source value 0.75", got)
	}
	if got := dst.Help("cpu.cycles"); got != "simulated cycles" {
		t.Errorf("help rewritten to %q; first registration must win", got)
	}
	if got := dst.Help("mem.l1d.hits"); got != "cache hits" {
		t.Errorf("new name help = %q, want the source's", got)
	}
	mh := dst.Histogram("mem.l1d.latency", "", nil)
	if mh.Count() != 3 || mh.Sum() != 555 {
		t.Errorf("merged histogram count=%d sum=%v, want 3/555", mh.Count(), mh.Sum())
	}
	_, counts := mh.Buckets()
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 1 {
		t.Errorf("merged buckets = %v, want [1 1 1]", counts)
	}
}

// TestMergeCommutative: two worker registries merged in either order
// produce byte-identical JSON — the property the parallel runner's
// barrier relies on.
func TestMergeCommutative(t *testing.T) {
	worker := func(n uint64) *Registry {
		r := NewRegistry()
		r.Counter("attacks.trials", "t").Add(n)
		r.Histogram("attacks.obs.mapped", "o", []float64{100, 200}).Observe(float64(50 * n))
		return r
	}
	a, b := worker(3), worker(5)
	ab, ba := NewRegistry(), NewRegistry()
	ab.Merge(a)
	ab.Merge(b)
	ba.Merge(b)
	ba.Merge(a)
	j1, err := ab.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := ba.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Errorf("merge order changed the export:\n%s\nvs\n%s", j1, j2)
	}
}

// TestMergeNilAndSelf: degenerate merges are no-ops.
func TestMergeNilAndSelf(t *testing.T) {
	r := NewRegistry()
	r.Counter("cpu.cycles", "").Add(9)
	r.Merge(nil)
	r.Merge(r)
	if got := r.Counter("cpu.cycles", "").Value(); got != 9 {
		t.Errorf("degenerate merge changed the counter to %d", got)
	}
}
