package scenario

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"vpsec/internal/attacks"
	"vpsec/internal/core"
	"vpsec/internal/cpu"
	"vpsec/internal/defense"
)

// Canonical returns the spec reduced to its experiment content alone —
// the normal form that Hash digests and that a result cache keys on.
// It is normal with the presentation and infrastructure fields cleared:
// Name and Title label a spec without changing what it runs, Jobs only
// selects a worker count (results are byte-identical at every value,
// the runner's contract), and Metrics/Trace are excluded from JSON
// already. Because Execute runs normal too, two specs that hash equal
// run the same experiment and produce the same CanonicalJSON bytes.
//
// JSON key order never participates: Parse decodes into the struct and
// marshaling emits fields in declaration order, so canonical JSON is a
// function of field values only. Canonical is idempotent, and a valid
// spec stays valid (the golden tests assert both).
func (s Spec) Canonical() Spec {
	c := s.normal()
	c.Name, c.Title = "", ""
	c.Jobs = 0
	c.Metrics, c.Trace = nil, nil
	return c
}

// normal returns the spec Execute runs: a fresh spec holding only the
// fields s's kind reads, with every documented default spelled out
// ("runs": 100, "confidence": 4, "predictor": "lvp", the timing-window
// channel, the standard sweep points). It is the one place that decides
// what each kind reads, so a field no kind lists here is dropped from
// both the hash and the run, never from only one of them. Name, Title
// and the infrastructure fields are kept for Execute; Canonical clears
// them. Default slices are fresh, since a caller may mutate its copy.
func (s Spec) normal() Spec {
	d := Defaults()
	n := Spec{Name: s.Name, Title: s.Title, Kind: s.Kind, Seed: s.Seed,
		Jobs: s.Jobs, Metrics: s.Metrics, Trace: s.Trace}
	switch s.Kind {
	case KindSim:
		// One program on one machine (executeSim).
		n.Program = s.Program
		n.Predictor = cmp.Or(s.Predictor, d.Predictor)
		n.Scheme = cmp.Or(s.Scheme, "pc")
		n.Confidence = cmp.Or(s.Confidence, d.Confidence)
		return n
	case KindCacheBench, KindCacheMatrix:
		// (pattern[s], runs, seed, mem_jitter) (executeCacheBench).
		if s.Kind == KindCacheBench {
			n.Pattern = s.Pattern
		} else {
			n.Patterns = s.Patterns
		}
		n.Runs = cmp.Or(s.Runs, d.Runs)
		n.MemJitter = s.memJitter()
		return n
	}

	// The attack kinds compile to attacks.Options (options).
	n.Predictor = cmp.Or(s.Predictor, d.Predictor)
	n.Confidence = cmp.Or(s.Confidence, d.Confidence)
	n.Channel = cmp.Or(s.Channel, d.Channel)
	n.Runs = cmp.Or(s.Runs, d.Runs)
	n.Defense = s.Defense.normal(s.Kind == KindDefenseSweep)
	n.UsePID, n.Prefetch, n.Replay, n.ResetModify = s.UsePID, s.Prefetch, s.Replay, s.ResetModify
	n.FPC, n.TrainIters, n.NoSyncCost = s.FPC, s.TrainIters, s.NoSyncCost
	n.MemJitter = s.memJitter()

	switch s.Kind {
	case KindCase:
		n.Category = s.Category
	case KindVariant:
		// RunVariant derives the category from the pattern and runs the
		// timing-window channel.
		n.Variant = s.Variant
		n.Channel = core.TimingWindow.String()
	case KindEviction:
		// Train + Test over the timing-window channel, always.
		n.Channel = core.TimingWindow.String()
	case KindSMT:
		// RunVolatileSMT runs the volatile channel.
		n.Category = s.Category
		n.Channel = core.Volatile.String()
	case KindTableIII:
		// TableIII iterates every (category, channel) cell itself.
		n.Channel = ""
	case KindFigure:
		// The four panels pin their own channel and predictor axes; only
		// the category and the VP-panel predictor come from the spec.
		n.Category = s.Category
		n.Channel = ""
	case KindNoiseSweep:
		// The sweep sets the jitter per point.
		n.Category = s.Category
		n.MemJitter = nil
		n.Jitters = s.Jitters
		if len(n.Jitters) == 0 {
			n.Jitters = defaultJitters()
		}
	case KindConfSweep:
		// The sweep sets the confidence number per point.
		n.Category = s.Category
		n.Confidence = 0
		n.Confidences = s.Confidences
		if len(n.Confidences) == 0 {
			n.Confidences = defaultConfidences()
		}
	case KindDefenseSweep:
		// Categories is the canonical spelling of the swept list.
		n.Categories = s.sweepCategories()
		n.MaxWindow = cmp.Or(s.MaxWindow, 10)
	case KindDefenseMatrix:
		// Matrix iterates every (category, channel, strategy) cell and
		// sets each cell's defense; no strategies means all of
		// defense.Strategies.
		n.Channel = ""
		n.Defense = nil
		n.Strategies = s.Strategies
		if len(n.Strategies) == 0 {
			for _, st := range defense.Strategies() {
				n.Strategies = append(n.Strategies, st.Name)
			}
		}
		n.Slowdown = s.Slowdown
	}
	return n
}

// normal writes the defense in its one canonical spelling. It resolves
// d to its stack, less the R-type mechanism when dropR is set (a
// defense-sweep sets the window per point); an empty stack is no
// defense. Otherwise Strategy is the catalog name whose stack is equal,
// else the stack's canonical string, which goes in Stack instead when
// it names a catalog entry with a different stack (the catalog's
// "A+R(5)" is A-fixed+R(5)). A defense that does not resolve is kept
// as given, for Validate to reject.
func (d *DefenseSpec) normal(dropR bool) *DefenseSpec {
	stack, err := d.config()
	if err != nil {
		return d
	}
	if dropR {
		stack = stack.WithoutRandomWindow()
	}
	if len(stack) == 0 {
		return nil
	}
	str := stack.String()
	named := false
	for _, st := range defense.Catalog() {
		if st.Stack.String() == str {
			return &DefenseSpec{Strategy: st.Name}
		}
		named = named || st.Name == str
	}
	if named {
		return &DefenseSpec{Stack: str}
	}
	return &DefenseSpec{Strategy: str}
}

// memJitter is the spec's jitter override, nil when it restates the
// default model's value.
func (s Spec) memJitter() *uint64 {
	if s.MemJitter != nil && *s.MemJitter == cpu.DefaultNoise().MemJitter {
		return nil
	}
	return s.MemJitter
}

// CanonicalJSON renders the result in its canonical byte form — the
// representation a content-addressed result store keeps and serves.
// The embedded spec is canonicalized and the echoed worker counts
// (Opt.Jobs, including the per-case copies) are zeroed, so equal-seed
// runs marshal to identical bytes at every concurrency level: the
// runner's determinism contract already makes every observation,
// statistic and derived field identical, and this strips the one field
// that merely records how the work was scheduled.
func (r *Result) CanonicalJSON() ([]byte, error) {
	c := *r
	c.Spec = c.Spec.Canonical()
	c.Opt.Jobs = 0
	c.Opt.Metrics, c.Opt.Trace = nil, nil
	c.Cases = append([]attacks.CaseResult(nil), c.Cases...)
	for i := range c.Cases {
		c.Cases[i].Opt.Jobs = 0
	}
	c.Table3 = append([]attacks.TableIIIRow(nil), c.Table3...)
	for i := range c.Table3 {
		c.Table3[i].TWNoVP.Opt.Jobs = 0
		c.Table3[i].TWVP.Opt.Jobs = 0
		c.Table3[i].PersNoVP.Opt.Jobs = 0
		c.Table3[i].PersVP.Opt.Jobs = 0
	}
	sanitizeFloats(reflect.ValueOf(&c).Elem())
	data, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: marshal result: %v", err)
	}
	return append(data, '\n'), nil
}

// sanitizeFloats rewrites non-finite float64s in v to JSON-encodable
// values: ±Inf clamps to ±math.MaxFloat64, NaN becomes 0. The one
// known legitimate source of infinities — the zero-variance Welch
// t-test — now reports the finite ±stats.TMax sentinel at the source
// (the same bytes this clamp used to produce), so this pass is a
// safety net for any ratio or derived statistic that still overflows;
// JSON has no encoding for non-finite values, and a result must always
// serialize. Slices are copied before rewriting
// (CanonicalJSON works on a shallow copy whose slices are shared with
// the caller's Result); struct fields marked json:"-" (registry and
// tracer pointers) are never entered.
func sanitizeFloats(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64, reflect.Float32:
		f := v.Float()
		switch {
		case math.IsInf(f, 1):
			v.SetFloat(math.MaxFloat64)
		case math.IsInf(f, -1):
			v.SetFloat(-math.MaxFloat64)
		case math.IsNaN(f):
			v.SetFloat(0)
		}
	case reflect.Slice:
		if v.IsNil() {
			return
		}
		fresh := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		reflect.Copy(fresh, v)
		v.Set(fresh)
		for i := 0; i < v.Len(); i++ {
			sanitizeFloats(v.Index(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			sanitizeFloats(v.Index(i))
		}
	case reflect.Ptr:
		if v.IsNil() {
			return
		}
		fresh := reflect.New(v.Type().Elem())
		fresh.Elem().Set(v.Elem())
		v.Set(fresh)
		sanitizeFloats(v.Elem())
	case reflect.Map:
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			sanitizeFloats(e)
			v.SetMapIndex(k, e)
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" || f.Tag.Get("json") == "-" {
				continue
			}
			sanitizeFloats(v.Field(i))
		}
	}
}
