package cpu

import (
	"math/rand"
	"testing"

	"vpsec/internal/metrics"
	"vpsec/internal/predictor"
)

// TestCountersMonotone runs one machine with a metrics registry through
// several Runs, resetting its predictor between some of them as the
// flush-on-switch defense does, and checks the published counters
// after every Run: none may decrease, each pred.<scope>.* counter must
// equal its cpu.vps.* twin, and pred.<scope>.evictions must equal the
// evictions the predictor made. The predictor indexes by data
// address with two entries, so the value change between runs evicts
// and mispredicts; it runs bare and under the A and R wrappers.
func TestCountersMonotone(t *testing.T) {
	for _, c := range []struct {
		scope string
		wrap  func(predictor.Predictor) predictor.Predictor
		paths []string // counters the runs must move
	}{
		{"lvp", func(p predictor.Predictor) predictor.Predictor { return p },
			[]string{"correct", "mispredicts", "no_predictions", "evictions"}},
		{"lvp_a", func(p predictor.Predictor) predictor.Predictor { return predictor.NewAType(p, 0) },
			[]string{"correct", "mispredicts", "evictions"}},
		{"lvp_r", func(p predictor.Predictor) predictor.Predictor {
			return predictor.NewRType(p, 3, rand.New(rand.NewSource(2)))
		}, []string{"correct", "mispredicts", "no_predictions", "evictions"}},
	} {
		t.Run(c.scope, func(t *testing.T) {
			lvp, err := predictor.NewLVP(predictor.LVPConfig{Entries: 2, Confidence: 2, Scheme: predictor.ByDataAddr})
			if err != nil {
				t.Fatal(err)
			}
			m := newTestMachine(t, c.wrap(lvp))
			reg := metrics.NewRegistry()
			m.AttachMetrics(reg)
			prev := reg.Snapshot().Counters
			pred := "pred." + c.scope + "."
			for i, run := range []struct {
				value uint64
				reset bool
			}{{0xAB, false}, {0xAB, false}, {0x9D, true}, {0xAB, false}, {0x9D, true}, {0x9D, false}} {
				if run.reset {
					m.Pred.Reset()
				}
				mustRun(t, m, trainAndTriggerProgram(6, run.value))
				cur := reg.Snapshot().Counters
				for name, v := range prev {
					if cur[name] < v {
						t.Errorf("run %d: %s fell from %d to %d", i, name, v, cur[name])
					}
				}
				for _, twin := range [][2]string{
					{pred + "predictions", "cpu.vps.predictions"},
					{pred + "no_predictions", "cpu.vps.no_predictions"},
					{pred + "correct", "cpu.vps.correct"},
					{pred + "mispredicts", "cpu.vps.wrong"},
				} {
					if cur[twin[0]] != cur[twin[1]] {
						t.Errorf("run %d: %s = %d, %s = %d", i, twin[0], cur[twin[0]], twin[1], cur[twin[1]])
					}
				}
				if l, want := cur[pred+"lookups"], cur["cpu.vps.predictions"]+cur["cpu.vps.no_predictions"]; l != want {
					t.Errorf("run %d: %slookups = %d, cpu.vps predictions + no_predictions = %d", i, pred, l, want)
				}
				if ev, want := cur[pred+"evictions"], m.Pred.Evictions(); ev != want {
					t.Errorf("run %d: %sevictions = %d, the predictor evicted %d", i, pred, ev, want)
				}
				prev = cur
			}
			for _, name := range c.paths {
				if prev[pred+name] == 0 {
					t.Errorf("%s%s stayed 0: the runs miss a path", pred, name)
				}
			}
		})
	}
}
