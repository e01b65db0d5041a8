package attacks

import (
	"context"
	"strings"
	"sync"
	"testing"

	"vpsec/internal/core"
	"vpsec/internal/obs"
)

// kernelSink collects the (kernel name, iters) attributes of every
// kernel span a traced run opens.
type kernelSink struct {
	mu    sync.Mutex
	spans [][2]any
}

func (s *kernelSink) Emit(e obs.Event) {
	if e.Ph != obs.PhaseBegin || e.Name != "kernel" {
		return
	}
	var kv [2]any
	for _, a := range e.Attrs {
		switch a.Key {
		case "kernel":
			kv[0] = a.Val
		case "iters":
			kv[1] = a.Val
		}
	}
	s.mu.Lock()
	s.spans = append(s.spans, kv)
	s.mu.Unlock()
}

func (s *kernelSink) Close() error { return nil }

// TestTrainItersAndResetModifyReachEveryFamily: Options.TrainIters sets
// the access count of every training step, and Options.ResetModify
// makes every modify step a single access, in each trial family — the
// headline cells on every channel, the SMT sampler cells, the
// eviction-set cell and all twelve Table II rows. Spill Over keeps its
// documented confidence-1 training.
func TestTrainItersAndResetModifyReachEveryFamily(t *testing.T) {
	const trainIters = 7
	type run struct {
		name string
		cat  core.Category
		fn   func(context.Context, Options) (CaseResult, error)
	}
	var runs []run
	for _, cat := range core.Categories() {
		for _, ch := range core.ChannelsFor(cat) {
			runs = append(runs, run{string(cat) + "/" + ch.String(), cat, func(ctx context.Context, o Options) (CaseResult, error) {
				o.Channel = ch
				return Run(ctx, cat, o)
			}})
		}
	}
	for _, cat := range []core.Category{core.TrainTest, core.TestHit, core.FillUp} {
		runs = append(runs, run{string(cat) + "/smt", cat, func(ctx context.Context, o Options) (CaseResult, error) {
			return RunVolatileSMT(ctx, cat, o)
		}})
	}
	runs = append(runs, run{"eviction", core.TrainTest, RunTrainTestEviction})
	for _, v := range core.Reduce() {
		runs = append(runs, run{v.Pattern.String(), v.Category, func(ctx context.Context, o Options) (CaseResult, error) {
			return RunVariant(ctx, v, o)
		}})
	}
	for _, r := range runs {
		sink := &kernelSink{}
		opt := Options{Runs: 2, Seed: 1, Jobs: 1, TrainIters: trainIters, ResetModify: true, Trace: obs.New(sink)}
		if _, err := r.fn(context.Background(), opt); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		wantTrain := trainIters
		if r.cat == core.SpillOver {
			wantTrain = 4 - 1 // the default confidence, less one
		}
		trains := 0
		for _, kv := range sink.spans {
			name, _ := kv[0].(string)
			switch {
			case strings.HasSuffix(name, "train"):
				trains++
				if kv[1] != wantTrain {
					t.Errorf("%s: %s span iters=%v, want %d", r.name, name, kv[1], wantTrain)
				}
			case strings.HasSuffix(name, "modify"):
				if kv[1] != 1 {
					t.Errorf("%s: %s span iters=%v, want 1", r.name, name, kv[1])
				}
			}
		}
		if trains != 2*opt.Runs {
			t.Errorf("%s: %d train spans, want %d", r.name, trains, 2*opt.Runs)
		}
	}
}
