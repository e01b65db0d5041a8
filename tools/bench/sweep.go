package main

import (
	"context"
	"crypto/sha256"
	"time"

	"vpsec/internal/scenario"
)

// sweep is the registry-sweep workload: the 68 non-cachebench registry
// scenarios executed one after another through scenario.Execute at
// Jobs=1 and paper defaults. The seed offset is added to every spec's
// seed. A pass's digest is the SHA-256 over the scenarios'
// Result.CanonicalJSON bytes in registry order.
type sweep struct {
	specs []scenario.Spec
}

func setupSweep(cfg config) (instance, error) {
	specs, err := sweepSpecs(cfg.seed, cfg.size.specs)
	if err != nil {
		return nil, err
	}
	return &sweep{specs: specs}, nil
}

func (w *sweep) pass(o passOpts) (passOut, error) {
	out := passOut{phases: map[string]float64{}}
	d := sha256.New()
	for _, s := range w.specs {
		s.Metrics, s.Trace = o.reg, o.trace
		span := o.root.Child("execute")
		t0 := time.Now()
		res, err := scenario.Execute(context.Background(), s)
		out.phases[string(s.Kind)] += time.Since(t0).Seconds()
		span.End()
		out.attempted++
		if err != nil {
			out.fail("%s: %v", s.Name, err)
			continue
		}
		span = o.root.Child("digest")
		data, err := res.CanonicalJSON()
		if err != nil {
			out.fail("%s: %v", s.Name, err)
		}
		d.Write(data)
		span.End()
	}
	out.digest = hexSum(d)
	return out, nil
}

func (w *sweep) close() {}
