package attacks

import (
	"context"

	"vpsec/internal/metrics"
	"vpsec/internal/obs"
	"vpsec/internal/runner"
)

// trialFunc executes one trial on a fresh env and returns the
// receiver's observation plus the trial's simulated-cycle total (0
// when the caller does not track cycles).
type trialFunc func(e *env, mapped bool) (obs float64, cyc uint64, err error)

// trialOut is one trial's contribution to a CaseResult.
type trialOut struct {
	obs float64
	cyc uint64
}

// runCaseTrials executes opt.Runs mapped/unmapped trial pairs through
// the parallel runner and assembles res.Mapped, res.Unmapped and
// res.TTrajectory exactly as the legacy sequential loops did. Work
// item 2*i is trial i's mapped case and 2*i+1 its unmapped case; each
// item re-derives the legacy loop's seed from its index alone
// (opt.Seed + 4*i + 1, +2 when mapped), so a fresh env built from it
// is independent of worker count and scheduling. record selects
// whether each trial publishes recordTrial metrics and each pair
// extends the t trajectory (RunVariant does neither, matching its
// legacy loop). The returned total is the sum of per-trial cycle
// counts in trial order.
func runCaseTrials(ctx context.Context, opt *Options, res *CaseResult, record bool, fn trialFunc) (totalCycles float64, err error) {
	outs, err := runner.Map(ctx, runner.Config{Jobs: opt.Jobs, Metrics: opt.Metrics, Trace: opt.Trace}, 2*opt.Runs,
		func(ctx context.Context, k int, reg *metrics.Registry) (trialOut, error) {
			i := k / 2
			mapped := k%2 == 0
			seed := opt.Seed + int64(i)*4 + 1
			if mapped {
				seed += 2
			}
			// Each item's env writes the registry the runner handed us:
			// the shared one on the sequential path, a private scratch
			// registry merged at the barrier otherwise.
			o := *opt
			o.Metrics = reg
			// The runner put this item's trial span in the context; the
			// env carries it so the kernel/probe/stats phases nest there.
			span := obs.FromContext(ctx)
			var setup obs.Span
			if span.Traced() {
				setup = span.Child("setup", obs.Int("trial", i))
			}
			e, err := newEnv(&o, seed)
			setup.End()
			if err != nil {
				return trialOut{}, err
			}
			e.span = span
			ob, cyc, err := fn(e, mapped)
			if err != nil {
				return trialOut{}, err
			}
			if record {
				e.recordTrial(mapped, ob, cyc)
			}
			e.release()
			return trialOut{obs: ob, cyc: cyc}, nil
		})
	if err != nil {
		return 0, err
	}
	for i := 0; i < opt.Runs; i++ {
		m, u := outs[2*i], outs[2*i+1]
		// Two separate adds in trial order, so every partial sum is the
		// same float the sequential loop computed.
		totalCycles += float64(m.cyc)
		totalCycles += float64(u.cyc)
		res.Mapped = append(res.Mapped, m.obs)
		res.Unmapped = append(res.Unmapped, u.obs)
		if record {
			res.appendTrajectory()
		}
	}
	return totalCycles, nil
}
