package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"vpsec/internal/cachebench"
	"vpsec/internal/scenario"
)

// matrix is the cachebench-full workload: the registered
// cachebench-matrix-full scenario (976 cases x 2 arms x 100 trials)
// through scenario.Execute at Jobs=2, with the seed offset added to its
// seed. The digest is the SHA-256 of the result's CanonicalJSON; the
// counts are the vulnerable cases and how many of the six published
// attacks (cachebench.KnownAttacks) are among them.
type matrix struct {
	spec  scenario.Spec
	known map[string]bool // KnownAttacks pattern spellings
}

func setupMatrix(cfg config) (instance, error) {
	spec, ok := scenario.Lookup("cachebench-matrix-full")
	if !ok {
		return nil, fmt.Errorf("cachebench-matrix-full is not registered")
	}
	spec.Seed += cfg.seed
	spec.Jobs = 2
	if n := cfg.size.cases; n > 0 {
		for _, p := range cachebench.Family()[:n] {
			spec.Patterns = append(spec.Patterns, p.String())
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, k := range cachebench.KnownAttacks() {
		known[k.Pattern.String()] = true
	}
	return &matrix{spec: spec, known: known}, nil
}

func (w *matrix) pass(o passOpts) (passOut, error) {
	s := w.spec
	s.Metrics, s.Trace = o.reg, o.trace
	var out passOut
	span := o.root.Child("execute")
	res, err := scenario.Execute(context.Background(), s)
	span.End()
	if err != nil {
		out.attempted = 1
		out.fail("%s: %v", s.Name, err)
		return out, nil
	}
	m := res.CacheBench
	out.attempted = m.Total
	span = o.root.Child("digest")
	data, err := res.CanonicalJSON()
	span.End()
	if err != nil {
		out.fail("%s: %v", s.Name, err)
	}
	sum := sha256.Sum256(data)
	out.digest = hex.EncodeToString(sum[:])
	var known uint64
	for _, c := range m.Cases {
		if c.Vulnerable && w.known[c.Pattern] {
			known++
		}
	}
	out.counts = map[string]uint64{
		"cachebench.vulnerable":       uint64(m.Vulnerable),
		"cachebench.known_vulnerable": known,
	}
	return out, nil
}

func (w *matrix) close() {}
