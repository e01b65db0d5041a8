// Package locality audits a program's load-value locality: for every
// static load it measures how well the value stream would be captured
// by each predictor family — last-value (LVP), stride, and order-1
// context (FCM). Value prediction's performance case rests on this
// locality (the paper's intro cites 4.8%-11.2% gains), and so does its
// attack surface: a load whose values a predictor captures is exactly
// a load whose values train a VPS entry an attacker can probe, and a
// *secret-dependent* load that is predictable under one family but not
// another leaks under exactly that family (compare the RSA victim's
// dummy-pointer load, last-value predictable and leaking under LVP,
// with its swap-pointer load, alternation-predictable and leaking
// under nothing until an FCM learns it).
//
// The audit runs the functional interpreter (internal/isa), not the
// timed pipeline: locality is an architectural property of the value
// stream, independent of cache state or timing.
package locality

import (
	"fmt"
	"sort"
	"strings"

	"vpsec/internal/isa"
)

// pcState accumulates one static load's dynamic stream.
type pcState struct {
	count int

	// last-value predictor state
	lastValue uint64
	lvHits    int

	// stride predictor state
	stride      uint64
	strideValid bool
	strideHits  int

	// order-k context (FCM) state: hash of the previous k values ->
	// the value that followed that context last time
	hist    []uint64 // the previous k values, oldest first
	ctx     map[uint64]uint64
	ctxHits int

	// address-indexed last-value state (footnote 1's predictor class):
	// data address -> last value loaded from it
	addrLast   map[uint64]uint64
	addrHits   int
	addrChecks int

	// distinct values seen (capped; used to flag constant streams)
	values map[uint64]struct{}

	// distinct addresses (a same-PC load walking many addresses is a
	// pointer chase / array scan; one address is a scalar reload)
	addrs map[uint64]struct{}
}

// PCStats is the per-static-load result of an audit.
type PCStats struct {
	PC    int // static instruction index
	Count int // dynamic executions

	// Hit rates in [0,1]: the fraction of dynamic executions (after
	// each predictor family's warm-up) whose value the family would
	// have predicted.
	LastValue float64
	Stride    float64
	Context   float64

	// AddrLastValue is the hit rate of an address-indexed last-value
	// predictor (same value reloaded from the same address), over the
	// executions whose address had been loaded before. Unlike the
	// PC-indexed families above it needs no same-PC value stability —
	// a pointer chase over constant memory scores 1.0 here.
	AddrLastValue float64

	DistinctValues int
	DistinctAddrs  int
}

// Best returns the name of the family with the highest hit rate, or
// "none" when nothing clears the threshold. Ties go to the earlier
// (simpler) family: a constant stream is "last-value" even though
// stride and context capture it too.
func (s PCStats) Best(threshold float64) string {
	best, rate := "none", 0.0
	for _, c := range []struct {
		name string
		r    float64
	}{{"last-value", s.LastValue}, {"stride", s.Stride}, {"context", s.Context},
		{"addr-last-value", s.AddrLastValue}} {
		if c.r >= threshold && c.r > rate {
			best, rate = c.name, c.r
		}
	}
	return best
}

// Predictable reports whether any family clears the threshold — i.e.
// whether this load would train a VPS entry of that family to
// confidence, making it both a performance win and an attack surface.
func (s PCStats) Predictable(threshold float64) bool {
	return s.LastValue >= threshold || s.Stride >= threshold ||
		s.Context >= threshold || s.AddrLastValue >= threshold
}

// Report is the result of auditing one program.
type Report struct {
	Program string
	Loads   []PCStats // sorted by PC
	Steps   uint64    // retired instructions
	Opt     Options   // post-default options the audit ran with
}

// hashContext folds an ordered value history into one map key (FNV-1a
// over the 64-bit values).
func hashContext(hist []uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range hist {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// maxTracked bounds the per-PC context and value maps so adversarial
// streams cannot exhaust memory; beyond the cap new contexts simply
// stop being learned, mirroring a finite VPT.
const maxTracked = 1 << 16

// Options parameterizes an audit.
type Options struct {
	// ContextOrder is the number of previous values forming the context
	// family's lookup key (the FCM's history depth). 0 means 1. The
	// RSA swap pointer needs only order 1; longer periodic patterns
	// (e.g. a 3-buffer rotation) need a matching order.
	ContextOrder int
}

func (o *Options) setDefaults() {
	if o.ContextOrder == 0 {
		o.ContextOrder = 1
	}
}

// Validate reports option errors.
func (o Options) Validate() error {
	if o.ContextOrder < 0 || o.ContextOrder > 16 {
		return fmt.Errorf("locality: context order %d out of [0,16]", o.ContextOrder)
	}
	return nil
}

// Profile runs p to completion on the functional interpreter and
// returns the per-load locality report with default options.
func Profile(p *isa.Program) (*Report, error) { return ProfileOpts(p, Options{}) }

// ProfileOpts runs p to completion on the functional interpreter and
// returns the per-load locality report.
func ProfileOpts(p *isa.Program, opt Options) (*Report, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt.setDefaults()
	states := make(map[int]*pcState)
	in := isa.NewInterp(p)
	in.OnRetire = func(c isa.Commit) error {
		if c.Op != isa.LOAD {
			return nil
		}
		// Memory, not c.Value: a load into r0 writes no register.
		pc, addr, value := c.PC, c.Addr, in.Mem[c.Addr]
		s := states[pc]
		if s == nil {
			s = &pcState{
				ctx:      make(map[uint64]uint64),
				addrLast: make(map[uint64]uint64),
				values:   make(map[uint64]struct{}),
				addrs:    make(map[uint64]struct{}),
			}
			states[pc] = s
		}
		if s.count > 0 {
			// Last-value: predicts the previous value.
			if value == s.lastValue {
				s.lvHits++
			}
			// Stride: predicts last + established delta.
			if s.strideValid && value == s.lastValue+s.stride {
				s.strideHits++
			}
			s.stride = value - s.lastValue
			s.strideValid = true
			// Order-k context: predicts what followed the same k
			// previous values last time.
			if len(s.hist) == opt.ContextOrder {
				k := hashContext(s.hist)
				if pred, ok := s.ctx[k]; ok && pred == value {
					s.ctxHits++
				}
				if _, ok := s.ctx[k]; ok || len(s.ctx) < maxTracked {
					s.ctx[k] = value
				}
			}
		}
		s.hist = append(s.hist, value)
		if len(s.hist) > opt.ContextOrder {
			s.hist = s.hist[len(s.hist)-opt.ContextOrder:]
		}
		if prev, ok := s.addrLast[addr]; ok {
			s.addrChecks++
			if prev == value {
				s.addrHits++
			}
			s.addrLast[addr] = value
		} else if len(s.addrLast) < maxTracked {
			s.addrLast[addr] = value
		}
		if len(s.values) < maxTracked {
			s.values[value] = struct{}{}
		}
		if len(s.addrs) < maxTracked {
			s.addrs[addr] = struct{}{}
		}
		s.lastValue = value
		s.count++
		return nil
	}
	steps, err := in.Run(p)
	if err != nil {
		return nil, err
	}
	r := &Report{Program: p.Name, Steps: steps, Opt: opt}
	for pc, s := range states {
		st := PCStats{
			PC:             pc,
			Count:          s.count,
			DistinctValues: len(s.values),
			DistinctAddrs:  len(s.addrs),
		}
		if n := s.count - 1; n > 0 {
			st.LastValue = float64(s.lvHits) / float64(n)
			st.Context = float64(s.ctxHits) / float64(n)
		}
		if n := s.count - 2; n > 0 {
			// The first delta only establishes the stride.
			st.Stride = float64(s.strideHits) / float64(n)
		}
		if s.addrChecks > 0 {
			st.AddrLastValue = float64(s.addrHits) / float64(s.addrChecks)
		}
		r.Loads = append(r.Loads, st)
	}
	sort.Slice(r.Loads, func(i, j int) bool { return r.Loads[i].PC < r.Loads[j].PC })
	return r, nil
}

// DefaultThreshold approximates a confidence-4 VPS: a stream must be
// right three times out of four to hold a trained entry.
const DefaultThreshold = 0.75

// Surface returns the loads that are predictable at the threshold —
// the program's value-predictor attack surface.
func (r *Report) Surface(threshold float64) []PCStats {
	var out []PCStats
	for _, s := range r.Loads {
		if s.Predictable(threshold) {
			out = append(out, s)
		}
	}
	return out
}

// String renders the report as an aligned text table with one row per
// static load and a trailing surface summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "value-locality audit of %q (%d retired instructions)\n\n", r.Program, r.Steps)
	fmt.Fprintf(&b, "%6s %8s %7s %7s %7s %7s %7s %7s  %s\n",
		"pc", "execs", "lastv", "stride", "context", "addrlv", "vals", "addrs", "family")
	for _, s := range r.Loads {
		fmt.Fprintf(&b, "%6d %8d %7.2f %7.2f %7.2f %7.2f %7d %7d  %s\n",
			s.PC, s.Count, s.LastValue, s.Stride, s.Context, s.AddrLastValue,
			s.DistinctValues, s.DistinctAddrs, s.Best(DefaultThreshold))
	}
	surf := r.Surface(DefaultThreshold)
	fmt.Fprintf(&b, "\n%d/%d static loads are value-predictable (>= %.0f%% under some family):\n",
		len(surf), len(r.Loads), DefaultThreshold*100)
	fmt.Fprintf(&b, "each is a VPS training target — a timing side channel if its value\n")
	fmt.Fprintf(&b, "or its reuse is secret-dependent (paper Secs. IV-V).\n")
	return b.String()
}
