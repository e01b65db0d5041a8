package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vpsec/internal/cachebench"
	"vpsec/internal/core"
	"vpsec/internal/cpu"
	"vpsec/internal/defense"
)

// fieldSamples maps every JSON key of Spec but name, title, jobs and
// kind to a valid value that differs from the key's default: what a
// respelled spec sets when its kind ignores the field.
func fieldSamples() map[string]string {
	q := strconv.Quote
	pattern := q(cachebench.ShrunkPatterns()[0])
	return map[string]string{
		"predictor": `"vtage"`, "confidence": `3`, "channel": `"persistent"`,
		"category": `"Fill Up"`, "categories": `["Fill Up"]`,
		"variant": q(core.Reduce()[0].Pattern.String()),
		"runs":    `3`, "seed": `7`, "defense": `{"strategy":"A"}`,
		"use_pid": `true`, "prefetch": `true`, "replay": `true`, "reset_modify": `true`,
		"fpc": `2`, "train_iters": `3`, "no_sync_cost": `true`, "mem_jitter": `50`,
		"jitters": `[5]`, "confidences": `[2]`, "max_window": `3`,
		"strategies": `["A"]`, "slowdown": `true`,
		"program": `"x.vasm"`, "scheme": `"addr"`,
		"pattern": pattern, "patterns": "[" + pattern + "]",
	}
}

// respelling is one kind's contract row: a base spec, the fields its
// kind ignores, and equivalent spellings of it.
type respelling struct {
	base string
	// ignored are fieldSamples keys the kind never reads; the base spec
	// with any one of them set is the same experiment.
	ignored []string
	// rejected are keys Validate refuses for the kind, so no respelling
	// can set them.
	rejected []string
	// spelled are `"key":value` fragments that spell out a default, or
	// another spelling of a field the base spec sets.
	spelled []string
}

// respellings returns one or more rows per kind. Every base runs 2
// trial pairs per case, and the matrix mostly 2 strategies, so that
// executing the lot takes seconds; the runs default is spelled out on
// two single-case kinds only.
func respellings() []respelling {
	knobs := []string{"variant", "categories", "jitters", "confidences", "max_window", "strategies", "slowdown"}
	simOnly := []string{"program", "scheme"}
	benchOnly := []string{"pattern", "patterns"}
	harness := []string{"predictor", "confidence", "channel", "category", "runs", "defense",
		"use_pid", "prefetch", "replay", "reset_modify", "fpc", "train_iters", "no_sync_cost", "mem_jitter"}
	// but drops keys from a list.
	but := func(keys []string, drop ...string) []string {
		return slices.DeleteFunc(slices.Clone(keys), func(k string) bool { return slices.Contains(drop, k) })
	}
	cat := func(lists ...[]string) []string { return slices.Concat(lists...) }
	attack := cat(simOnly, benchOnly)
	// Every attack kind spells these out the same way.
	defaultJitter := fmt.Sprintf(`"mem_jitter":%d`, cpu.DefaultNoise().MemJitter)
	harnessDefaults := []string{`"predictor":"lvp"`, `"confidence":4`, `"defense":{}`, defaultJitter}
	variant := strconv.Quote(core.Reduce()[0].Pattern.String())
	var strategies []string
	for _, st := range defense.Strategies() {
		strategies = append(strategies, strconv.Quote(st.Name))
	}
	pats := cachebench.ShrunkPatterns()
	return []respelling{
		{base: `{"kind":"case","category":"Train + Test","runs":2}`,
			ignored: cat(knobs, attack),
			spelled: cat(harnessDefaults, []string{`"channel":"timing-window"`,
				`"defense":{"strategy":"none"}`, `"defense":{"stack":"none"}`})},
		{base: `{"kind":"case","category":"Test + Hit"}`, spelled: []string{`"runs":100`}},
		{base: `{"kind":"variant","variant":` + variant + `,"runs":2}`,
			ignored: cat(but(knobs, "variant"), []string{"category", "channel"}, attack),
			spelled: cat(harnessDefaults, []string{`"channel":"timing-window"`})},
		{base: `{"kind":"eviction","runs":2}`,
			ignored: cat(knobs, []string{"category", "channel"}, attack),
			spelled: cat(harnessDefaults, []string{`"channel":"timing-window"`})},
		{base: `{"kind":"smt","category":"Test + Hit","runs":2}`,
			ignored: cat(knobs, []string{"channel"}, attack),
			spelled: cat(harnessDefaults, []string{`"channel":"volatile"`})},
		{base: `{"kind":"table3","runs":2}`,
			ignored: cat(knobs, []string{"category", "channel"}, attack),
			spelled: harnessDefaults},
		{base: `{"kind":"figure","category":"Train + Test","runs":2}`,
			ignored: cat(knobs, []string{"channel"}, attack),
			spelled: harnessDefaults},
		{base: `{"kind":"noise-sweep","category":"Train + Test","runs":2}`,
			ignored: cat(but(knobs, "jitters"), []string{"mem_jitter"}, attack),
			spelled: cat(harnessDefaults, []string{`"jitters":[0,12,50,100,200,400,800]`})},
		{base: `{"kind":"conf-sweep","category":"Train + Test","runs":2}`,
			ignored: cat(but(knobs, "confidences"), []string{"confidence"}, attack),
			spelled: []string{`"predictor":"lvp"`, `"defense":{}`, `"confidences":[2,3,4,6,8]`}},
		{base: `{"kind":"defense-sweep","categories":["Test + Hit"],"max_window":2,"runs":2}`,
			ignored: cat(but(knobs, "categories", "max_window"), []string{"category"}, attack),
			spelled: cat(harnessDefaults, []string{`"defense":{"strategy":"R(5)"}`, `"defense":{"stack":"R(5)"}`})},
		{base: `{"kind":"defense-sweep","category":"Test + Hit","runs":2}`,
			spelled: []string{`"max_window":10`, `"categories":["Test + Hit"]`}},
		{base: `{"kind":"defense-matrix","strategies":["none","A"],"runs":2}`,
			ignored: cat(but(knobs, "strategies", "slowdown"), []string{"category", "channel", "defense"}, attack),
			spelled: []string{`"predictor":"lvp"`, `"confidence":4`}},
		{base: `{"kind":"defense-matrix","runs":2}`,
			spelled: []string{`"strategies":[` + strings.Join(strategies, ",") + `]`}},
		{base: `{"kind":"sim","program":"../../examples/progs/hello.vasm"}`,
			ignored: cat(but(harness, "predictor", "confidence"), knobs, benchOnly),
			spelled: []string{`"predictor":"lvp"`, `"confidence":4`, `"scheme":"pc"`}},
		{base: `{"kind":"cachebench","pattern":"` + pats[0] + `","runs":2}`,
			ignored:  cat(but(harness, "runs", "mem_jitter"), knobs, simOnly),
			rejected: []string{"patterns"}},
		{base: `{"kind":"cachebench","pattern":"` + pats[0] + `"}`, spelled: []string{`"runs":100`, defaultJitter}},
		{base: `{"kind":"cachebench-matrix","patterns":["` + pats[0] + `","` + pats[1] + `"],"runs":2}`,
			ignored:  cat(but(harness, "runs", "mem_jitter"), knobs, simOnly),
			rejected: []string{"pattern"}},
		// A defense has one canonical spelling: the catalog name whose
		// stack is equal, else the stack string.
		{base: `{"kind":"case","category":"Test + Hit","runs":2,"defense":{"strategy":"D"}}`,
			spelled: []string{`"defense":{"stack":"D"}`}},
		{base: `{"kind":"case","category":"Test + Hit","runs":2,"defense":{"strategy":"A+R(5)"}}`,
			spelled: []string{`"defense":{"strategy":"A-fixed+R(5)"}`, `"defense":{"stack":"A-fixed+R(5)"}`}},
		{base: `{"kind":"case","category":"Test + Hit","runs":2,"defense":{"stack":"A+R(5)"}}`,
			spelled: []string{`"defense":{"stack":"A + R(5)"}`, `"defense":{"strategy":"A + R(5)"}`}},
		// A defense-sweep sets the window, so it drops a stack's R-type
		// mechanism.
		{base: `{"kind":"defense-sweep","categories":["Test + Hit"],"max_window":2,"runs":2,"defense":{"strategy":"A"}}`,
			spelled: []string{`"defense":{"strategy":"A+R(3)"}`, `"defense":{"stack":"R(9)+A"}`}},
	}
}

// with returns the JSON object spec with member set, replacing a
// member of the same key.
func with(spec, member string) string {
	var obj, add map[string]json.RawMessage
	if err := json.Unmarshal([]byte(spec), &obj); err != nil {
		panic(err)
	}
	if err := json.Unmarshal([]byte("{"+member+"}"), &add); err != nil {
		panic(err)
	}
	maps.Copy(obj, add)
	out, err := json.Marshal(obj)
	if err != nil {
		panic(err)
	}
	return string(out)
}

// TestExecuteRunsCanonicalForm is the contract a content-addressed cache
// rests on: a spec's hash names one result. For every kind, setting a
// field the kind ignores, or spelling out a default, must give an equal
// Hash and, executed, equal CanonicalJSON bytes. The ignored lists cover
// every field Canonical leaves out or overwrites for the kind.
func TestExecuteRunsCanonicalForm(t *testing.T) {
	samples := fieldSamples()
	run := func(t *testing.T, js string) (string, []byte) {
		t.Helper()
		s, err := Parse([]byte(js))
		if err != nil {
			t.Fatalf("%s: %v", js, err)
		}
		res, err := Execute(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", js, err)
		}
		data, err := res.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return s.Hash(), data
	}
	covered := map[Kind]map[string]bool{}
	for _, r := range respellings() {
		var probe struct{ Kind Kind }
		if err := json.Unmarshal([]byte(r.base), &probe); err != nil {
			t.Fatal(err)
		}
		if covered[probe.Kind] == nil {
			covered[probe.Kind] = map[string]bool{}
		}
		var variants []string
		for _, k := range r.ignored {
			covered[probe.Kind][k] = true
			variants = append(variants, `"`+k+`":`+samples[k])
		}
		for _, k := range r.rejected {
			covered[probe.Kind][k] = true
		}
		variants = append(variants, r.spelled...)
		t.Run(string(probe.Kind), func(t *testing.T) {
			hash, want := run(t, r.base)
			for _, v := range variants {
				js := with(r.base, v)
				h, got := run(t, js)
				if h != hash {
					t.Errorf("%s hashes apart from %s", js, r.base)
				}
				if string(got) != string(want) {
					t.Errorf("%s and %s produce different result bytes", js, r.base)
				}
			}
		})
	}

	// The catalog name "A+R(5)" is A-fixed+R(5); the stack spelling
	// bypasses the catalog, so it is another experiment.
	stack := `{"kind":"case","category":"Test + Hit","runs":2,"defense":{"stack":"A+R(5)"}}`
	named := with(stack, `"defense":{"strategy":"A+R(5)"}`)
	hash, data := run(t, stack)
	if h, _ := run(t, named); h == hash {
		t.Errorf("%s hashes like %s", stack, named)
	}
	var ran struct{ Opt struct{ Defense string } }
	if err := json.Unmarshal(data, &ran); err != nil {
		t.Fatal(err)
	}
	if ran.Opt.Defense != "A+R(5)" {
		t.Errorf("%s ran defense %s, want A+R(5)", stack, ran.Opt.Defense)
	}

	// The ignored lists must cover every field Canonical drops or
	// overwrites, so the rows above exercise all of them.
	for _, k := range Kinds() {
		for key := range changedByCanonical(t, k, samples) {
			if !covered[k][key] {
				t.Errorf("kind %s: Canonical changes %q, but no respelling sets it", k, key)
			}
		}
	}
}

// changedByCanonical returns the fieldSamples keys whose value the
// canonical form of a spec of kind k, with every sample set, drops or
// changes.
func changedByCanonical(t *testing.T, k Kind, samples map[string]string) map[string]bool {
	t.Helper()
	full := `{"kind":"` + string(k) + `"}`
	for key, v := range samples {
		full = with(full, `"`+key+`":`+v)
	}
	var s Spec
	if err := json.Unmarshal([]byte(full), &s); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(s.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	var canon map[string]json.RawMessage
	if err := json.Unmarshal(data, &canon); err != nil {
		t.Fatal(err)
	}
	changed := map[string]bool{}
	for key, v := range samples {
		var want, got any
		json.Unmarshal([]byte(v), &want)
		json.Unmarshal(canon[key], &got)
		if !reflect.DeepEqual(got, want) {
			changed[key] = true
		}
	}
	return changed
}

// TestSpecFieldsRead: every JSON field of Spec but the presentation and
// infrastructure fields (name, title, jobs) is kept by at least one
// kind's canonical form, so a field added later is either hashed and
// run or caught here — never silently ignored by both.
func TestSpecFieldsRead(t *testing.T) {
	samples := fieldSamples()
	dropped := map[string]int{}
	for _, k := range Kinds() {
		for key := range changedByCanonical(t, k, samples) {
			dropped[key]++
		}
	}
	st := reflect.TypeOf(Spec{})
	for i := 0; i < st.NumField(); i++ {
		key, _, _ := strings.Cut(st.Field(i).Tag.Get("json"), ",")
		switch key {
		case "-", "name", "title", "jobs", "kind":
			continue
		}
		if _, ok := samples[key]; !ok {
			t.Errorf("Spec field %q has no sample in fieldSamples: add one, and list the kinds that ignore it in respellings", key)
			continue
		}
		if dropped[key] == len(Kinds()) {
			t.Errorf("no kind's canonical form keeps Spec field %q", key)
		}
	}
}
