package cpu

import (
	"sort"
	"strings"

	"vpsec/internal/metrics"
	"vpsec/internal/predictor"
)

// robOccBounds buckets per-cycle ROB occupancy; the default ROB holds
// 192 entries, so the top bucket separates "full" from "draining".
var robOccBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 96, 128, 160, 192}

// confBounds buckets predictor confidence counters; thresholds in the
// paper are small (default 4, saturation 8), larger values appear only
// with widened MaxConf configs.
var confBounds = []float64{0, 1, 2, 3, 4, 5, 6, 8, 12, 16, 32}

// machineMetrics tracks the machine's registry handles plus the
// last-published predictor eviction count, so repeated publishes add
// exact deltas (the predictor is shared across runs on one machine and
// counts evictions over its lifetime, while each RunResult is already
// a per-run delta).
//
// The per-cycle ROB-occupancy observation tallies into the local
// occCounts array through a precomputed occupancy->bucket table and is
// merged into the shared histogram at publish time, keeping the
// per-cycle cost to an array increment.
type machineMetrics struct {
	reg           *metrics.Registry
	robOcc        *metrics.Histogram
	lastEvictions uint64

	occLUT    []uint8  // occupancy -> bucket index
	occCounts []uint64 // local per-bucket tallies; +Inf last
	occSum    float64
	occCount  uint64

	// run holds the cpu.* handles resolved once at attach, so publishRun
	// is pure pointer adds — no name construction or registry lookups.
	run runHandles
	// predName / pred cache the per-predictor handles; rebuilt only when
	// the machine's predictor name changes between attaches.
	predName string
	pred     predHandles
}

// runHandles are the fixed per-run counters and gauges.
type runHandles struct {
	cycles, fetched, issued, retired, squashed *metrics.Counter
	squashValue, squashBranch, replayed        *metrics.Counter
	loadMisses, forwards, portConflicts        *metrics.Counter
	predictions, noPredictions, correct, wrong *metrics.Counter
	ipc                                        *metrics.Gauge
}

// predHandles are one predictor scope's counters and gauges. The
// accuracy gauge and confidence histogram are resolved lazily (first
// nonzero verification, FinalizeMetrics), so they are registered only
// for predictors that actually produce them — eager registration would
// add empty pred.<scope>.* series to the export for the no-VP
// baseline.
type predHandles struct {
	lookups, predictions, noPredictions *metrics.Counter
	correct, mispredicts, evictions     *metrics.Counter
	accuracy                            *metrics.Gauge
	confidence                          *metrics.Histogram
}

func resolveRunHandles(reg *metrics.Registry) runHandles {
	return runHandles{
		cycles:        reg.Counter("cpu.cycles", "simulated cycles"),
		fetched:       reg.Counter("cpu.fetch.instrs", "instructions renamed into the ROB (wrong path included)"),
		issued:        reg.Counter("cpu.issue.instrs", "instructions that began execution"),
		retired:       reg.Counter("cpu.commit.retired", "instructions committed"),
		squashed:      reg.Counter("cpu.commit.squashes", "ROB entries dropped by full squashes"),
		squashValue:   reg.Counter("cpu.squash.value", "value-misprediction squash events"),
		squashBranch:  reg.Counter("cpu.squash.branch", "branch-misprediction refetch events"),
		replayed:      reg.Counter("cpu.replay.instrs", "entries re-executed by selective replay"),
		loadMisses:    reg.Counter("cpu.load.misses", "loads served beyond the L1"),
		forwards:      reg.Counter("cpu.load.forwards", "store-to-load forwards"),
		portConflicts: reg.Counter("cpu.issue.port_conflicts", "ready instructions stalled on issue ports"),
		predictions:   reg.Counter("cpu.vps.predictions", "value predictions forwarded"),
		noPredictions: reg.Counter("cpu.vps.no_predictions", "VPS consultations below confidence"),
		correct:       reg.Counter("cpu.vps.correct", "predictions verified correct"),
		wrong:         reg.Counter("cpu.vps.wrong", "predictions verified wrong"),
		ipc:           reg.Gauge("cpu.ipc", "retired instructions per cycle, from registry totals"),
	}
}

func resolvePredHandles(reg *metrics.Registry, name string) predHandles {
	scope := "pred." + predScope(name) + "."
	return predHandles{
		lookups:       reg.Counter(scope+"lookups", "Predict consultations"),
		predictions:   reg.Counter(scope+"predictions", "lookups that produced a value"),
		noPredictions: reg.Counter(scope+"no_predictions", "lookups below the confidence threshold"),
		correct:       reg.Counter(scope+"correct", "verified-correct predictions"),
		mispredicts:   reg.Counter(scope+"mispredicts", "verified-incorrect predictions"),
		evictions:     reg.Counter(scope+"evictions", "usefulness-based table evictions"),
	}
}

// predScope lowercases a predictor's Name into a registry scope
// segment: "lvp+A" -> "lvp_a", "stride-2d" -> "stride-2d".
func predScope(name string) string {
	name = strings.ToLower(name)
	var b strings.Builder
	for _, c := range name {
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '-' {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// AttachMetrics connects the machine (and its memory hierarchy) to a
// registry. Per-cycle ROB occupancy streams into a histogram as the
// pipeline runs; everything else is published as counter deltas when
// each Run completes, so many machines may share one registry.
func (m *Machine) AttachMetrics(reg *metrics.Registry) {
	if mm := m.metricsCache; mm != nil && mm.reg == reg {
		// Re-attach to the same registry (a pooled machine starting a new
		// trial): reuse the resolved handles, and zero the delta trackers
		// and local tallies so the state matches a fresh attach.
		mm.lastEvictions = 0
		clear(mm.occCounts)
		mm.occSum, mm.occCount = 0, 0
		m.metrics = mm
		m.Hier.AttachMetrics(reg)
		return
	}
	mm := &machineMetrics{
		reg:       reg,
		robOcc:    reg.Histogram("cpu.rob.occupancy", "reorder-buffer entries live at the end of each cycle", robOccBounds),
		occCounts: make([]uint64, len(robOccBounds)+1),
		run:       resolveRunHandles(reg),
	}
	top := int(robOccBounds[len(robOccBounds)-1])
	mm.occLUT = make([]uint8, top+1)
	for n := 0; n <= top; n++ {
		mm.occLUT[n] = uint8(sort.SearchFloat64s(robOccBounds, float64(n)))
	}
	m.metrics = mm
	m.metricsCache = mm
	m.Hier.AttachMetrics(reg)
}

// observeOccupancy records k consecutive cycles of ROB occupancy n
// (no-op without an attached registry; with one, the cost is a
// table-lookup increment). Event-driven cycle skipping passes k > 1
// for a quiet stretch; the sums involved are integer-valued and far
// below 2^53, so the bulk addition is bit-identical to k repeated
// single-cycle observations.
func (m *Machine) observeOccupancy(n int, k uint64) {
	mm := m.metrics
	if mm == nil {
		return
	}
	if n < len(mm.occLUT) {
		mm.occCounts[mm.occLUT[n]] += k
	} else {
		mm.occCounts[len(mm.occCounts)-1] += k
	}
	mm.occSum += float64(n) * float64(k)
	mm.occCount += k
}

// publishRun forwards one completed run's counters into the registry.
// RunResult fields are per-run totals, so they are added directly; the
// predictor's lifetime eviction count is published as a delta since
// the last publish on this machine.
func (m *Machine) publishRun(res *RunResult) {
	mm := m.metrics
	if mm == nil {
		return
	}
	if mm.occCount > 0 {
		mm.robOcc.Merge(mm.occCounts, mm.occSum, mm.occCount)
		clear(mm.occCounts)
		mm.occSum, mm.occCount = 0, 0
	}
	h := &mm.run
	h.cycles.Add(res.Cycles)
	h.fetched.Add(res.Fetched)
	h.issued.Add(res.Issued)
	h.retired.Add(res.Retired)
	h.squashed.Add(res.Squashed)
	h.squashValue.Add(res.VerifyWrong)
	h.squashBranch.Add(res.BranchSquash)
	h.replayed.Add(res.Replayed)
	h.loadMisses.Add(res.LoadMisses)
	h.forwards.Add(res.Forwards)
	h.portConflicts.Add(res.PortConflicts)
	h.predictions.Add(res.Predictions)
	h.noPredictions.Add(res.NoPredictions)
	h.correct.Add(res.VerifyCorrect)
	h.wrong.Add(res.VerifyWrong)
	if cycles := h.cycles.Value(); cycles > 0 {
		h.ipc.Set(float64(h.retired.Value()) / float64(cycles))
	}
	m.Hier.PublishMetrics()
	m.publishPredictor(res)
}

// publishPredictor adds the run's VPS counts under the predictor's
// scope, the same RunResult fields cpu.vps.* adds, plus the eviction
// delta, and refreshes the accuracy gauge.
func (m *Machine) publishPredictor(res *RunResult) {
	mm := m.metrics
	ph := m.predictorHandles()
	ph.lookups.Add(res.Predictions + res.NoPredictions)
	ph.predictions.Add(res.Predictions)
	ph.noPredictions.Add(res.NoPredictions)
	ph.correct.Add(res.VerifyCorrect)
	ph.mispredicts.Add(res.VerifyWrong)
	ev := m.Pred.Evictions()
	ph.evictions.Add(ev - mm.lastEvictions)
	mm.lastEvictions = ev
	correct := ph.correct.Value()
	wrong := ph.mispredicts.Value()
	if v := correct + wrong; v > 0 {
		if ph.accuracy == nil {
			ph.accuracy = mm.reg.Gauge("pred."+predScope(m.Pred.Name())+".accuracy",
				"correct / (correct + mispredicts), from registry totals")
		}
		ph.accuracy.Set(float64(correct) / float64(v))
	}
}

// predictorHandles returns the cached handles for the machine's current
// predictor, resolving them on first use or after a predictor change.
func (m *Machine) predictorHandles() *predHandles {
	mm := m.metrics
	if name := m.Pred.Name(); mm.predName != name {
		mm.pred = resolvePredHandles(mm.reg, name)
		mm.predName = name
	}
	return &mm.pred
}

// FinalizeMetrics records end-of-experiment snapshots that are not
// deltas: the predictor's per-entry confidence-counter distribution
// (pred.<name>.confidence). Call it once per machine, after the last
// Run — each call appends the current distribution to the histogram.
func (m *Machine) FinalizeMetrics() {
	mm := m.metrics
	if mm == nil {
		return
	}
	cr, ok := m.Pred.(predictor.ConfidenceReporter)
	if !ok {
		return
	}
	ph := m.predictorHandles()
	if ph.confidence == nil {
		ph.confidence = mm.reg.Histogram("pred."+predScope(m.Pred.Name())+".confidence",
			"per-entry confidence counters at finalize time", confBounds)
	}
	for _, c := range cr.ConfidenceCounts() {
		ph.confidence.Observe(float64(c))
	}
}
