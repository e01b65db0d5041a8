package attacks

import (
	"context"
	"reflect"
	"testing"

	"vpsec/internal/core"
	"vpsec/internal/metrics"
)

// snapJSON renders a registry's canonical JSON export.
func snapJSON(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	j, err := reg.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(j)
}

// stripEnv clears the fields that legitimately differ between runs at
// different worker counts (the Options carry Jobs and the registry
// pointer) so the rest of the CaseResult can be compared exactly.
func stripEnv(r CaseResult) CaseResult {
	r.Opt = Options{}
	return r
}

// TestRunJobsDeterminism is the determinism contract's regression
// test: the same case at Jobs=1 (legacy sequential loop) and Jobs=8
// (worker pool) must produce identical CaseResult observations,
// statistics, and a byte-identical metrics JSON export.
func TestRunJobsDeterminism(t *testing.T) {
	runAt := func(jobs int) (CaseResult, string) {
		reg := metrics.NewRegistry()
		opt := Options{Predictor: LVP, Channel: core.TimingWindow,
			Runs: 10, Seed: 42, Jobs: jobs, Metrics: reg}
		r, err := Run(context.Background(), core.TrainTest, opt)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return stripEnv(r), snapJSON(t, reg)
	}
	seq, seqJSON := runAt(1)
	par, parJSON := runAt(8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("CaseResult differs between jobs=1 and jobs=8:\n%+v\nvs\n%+v", seq, par)
	}
	if seqJSON != parJSON {
		t.Errorf("metrics JSON differs between jobs=1 and jobs=8:\n%s\nvs\n%s", seqJSON, parJSON)
	}
}

// TestRunVariantJobsDeterminism covers the same contract on the
// RunVariant path (no recordTrial publishing, cycles read from the
// machine) for one Table II pattern.
func TestRunVariantJobsDeterminism(t *testing.T) {
	v, err := FindVariant("R^KI, S^SI', R^KI")
	if err != nil {
		t.Fatal(err)
	}
	runAt := func(jobs int) (CaseResult, string) {
		reg := metrics.NewRegistry()
		opt := Options{Predictor: LVP, Runs: 8, Seed: 7, Jobs: jobs, Metrics: reg}
		r, err := RunVariant(context.Background(), v, opt)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return stripEnv(r), snapJSON(t, reg)
	}
	seq, seqJSON := runAt(1)
	par, parJSON := runAt(8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("variant CaseResult differs between jobs=1 and jobs=8:\n%+v\nvs\n%+v", seq, par)
	}
	if seqJSON != parJSON {
		t.Errorf("variant metrics JSON differs between jobs=1 and jobs=8:\n%s\nvs\n%s", seqJSON, parJSON)
	}
}
