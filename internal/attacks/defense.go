package attacks

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"vpsec/internal/cpu"
	"vpsec/internal/predictor"
)

// This file is the one place a defense mechanism is declared. A
// defense is a stack of named Mechanisms, and what a mechanism does to
// a trial is the set of capability interfaces it implements — each
// engaged at exactly one site of the harness:
//
//   - PredictorWrapper — wraps the trial's predictor (the A- and
//     R-type transformations of Sec. VI-A), when newEnv builds it;
//   - EffectsMechanism — selects the pipeline's speculation-effects
//     policy (D-type delay, value recomputation), when newEnv
//     configures the machine;
//   - ContextSwitcher — runs OS work on a simulated context switch
//     (flush-on-switch, Sec. VI-B), whenever the env loader hands the
//     core to another process;
//   - ContextTagger — assigns predictor isolation-domain tags to
//     processes (context-tagged predictor partitioning), installed on
//     the machine by newEnv.
//
// The catalog below maps each token of the "A+R(5)+recompute" stack
// syntax to its constructor, and ParseStack reads that syntax. The
// named strategies of the paper's defense matrix, the window sweeps
// and the matrix itself live in internal/defense.

// Descriptor is one entry of the mechanism catalog.
type Descriptor struct {
	// Token is the mechanism's canonical token, e.g. "A" or
	// "recompute". For parameterized mechanisms it is the bare name; the
	// rendered form carries the argument, e.g. "R(5)".
	Token string

	// TakesArg marks a parameterized mechanism (token "R" renders and
	// parses as "R(w)").
	TakesArg bool

	// Summary is the one-line description shown by vpdefense
	// -list-strategies and -describe-strategy.
	Summary string

	// Build constructs the mechanism; arg is meaningful only when
	// TakesArg is set.
	Build func(arg int) Mechanism
}

// catalog lists every mechanism, sorted by token. A new mechanism is
// one entry here plus its type below; nothing else names it.
var catalog = []Descriptor{
	{Token: "A", Summary: "A-type: always predict, from the history value (Sec. VI-A)",
		Build: func(int) Mechanism { return AlwaysPredict(false) }},
	{Token: "A-fixed", Summary: "A-type, fixed flavor: always predict a fixed value (Sec. VI-A)",
		Build: func(int) Mechanism { return AlwaysPredict(true) }},
	{Token: "D", Summary: "D-type: delay speculative cache fills until commit (Sec. VI-A)",
		Build: func(int) Mechanism { return DelayEffects() }},
	{Token: "R", TakesArg: true, Summary: "R-type: predict within a random window W, P(correct)=1/W (Sec. VI-A)",
		Build: func(w int) Mechanism { return RandomWindow(w) }},
	{Token: "flush", Summary: "flush the whole VPS at every context switch (Sec. VI-B)",
		Build: func(int) Mechanism { return FlushVPS() }},
	{Token: "isolate", Summary: "context-tagged predictor isolation: per-process tag partitions VPS state",
		Build: func(int) Mechanism { return IsolateContexts() }},
	{Token: "recompute", Summary: "value recomputation: shadow-buffer speculative lines, install at commit",
		Build: func(int) Mechanism { return Recompute() }},
}

// Mechanisms lists the mechanism catalog, sorted by token.
func Mechanisms() []Descriptor { return slices.Clone(catalog) }

// MechanismFor resolves a catalog entry by token.
func MechanismFor(token string) (Descriptor, bool) {
	for _, d := range catalog {
		if d.Token == token {
			return d, true
		}
	}
	return Descriptor{}, false
}

// HookClasses names the harness hook classes a mechanism engages, read
// off the capability interfaces it implements: "predictor"
// (PredictorWrapper), "pipeline" (EffectsMechanism) and "context"
// (ContextSwitcher or ContextTagger), "+"-joined, or "none".
func HookClasses(m Mechanism) string {
	var parts []string
	if _, ok := m.(PredictorWrapper); ok {
		parts = append(parts, "predictor")
	}
	if _, ok := m.(EffectsMechanism); ok {
		parts = append(parts, "pipeline")
	}
	_, switcher := m.(ContextSwitcher)
	_, tagger := m.(ContextTagger)
	if switcher || tagger {
		parts = append(parts, "context")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Mechanism is one composable defense. Implementations additionally
// satisfy the capability interfaces of the hooks they engage.
type Mechanism interface {
	// DefenseName returns the mechanism's canonical token, e.g. "A",
	// "R(5)", "recompute" — what strategy strings are built from.
	DefenseName() string
	// Validate reports parameterization errors.
	Validate() error
}

// PredictorWrapper is a mechanism that transforms the predictor; the
// wrappers compose in stack order (first mechanism innermost). rng is
// the trial's RNG, shared with machine noise, so randomized wrappers
// stay deterministic per seed.
type PredictorWrapper interface {
	Mechanism
	WrapPredictor(inner predictor.Predictor, rng *rand.Rand) predictor.Predictor
}

// EffectsMechanism is a mechanism that selects the pipeline's
// speculation-effects policy. A stack may contain at most one.
type EffectsMechanism interface {
	Mechanism
	EffectsPolicy() cpu.EffectsPolicy
}

// ContextSwitcher is a mechanism invoked when the simulated OS
// switches the machine between processes.
type ContextSwitcher interface {
	Mechanism
	OnContextSwitch(m *cpu.Machine, prev, next uint64)
}

// ContextTagger is a mechanism that assigns each process a predictor
// isolation-domain tag (predictor.Context.Tag).
type ContextTagger interface {
	Mechanism
	ContextTag(pid uint64) uint64
}

// DefenseStack is an ordered stack of mechanisms; the zero value (or
// nil) is the undefended baseline. Order matters for predictor
// wrappers: earlier mechanisms wrap closer to the base predictor.
type DefenseStack []Mechanism

// Stack builds a DefenseStack from mechanisms, a shorthand keeping
// call sites readable: Stack(AlwaysPredict(false), RandomWindow(9)).
func Stack(ms ...Mechanism) DefenseStack { return DefenseStack(ms) }

// Active reports whether any defense mechanism is engaged.
func (s DefenseStack) Active() bool { return len(s) > 0 }

// String renders the stack's canonical form: the mechanism tokens
// joined with "+", or "none" for the empty stack.
func (s DefenseStack) String() string {
	if len(s) == 0 {
		return "none"
	}
	out := ""
	for i, m := range s {
		if i > 0 {
			out += "+"
		}
		out += m.DefenseName()
	}
	return out
}

// Validate reports per-mechanism errors and stack-level conflicts:
// duplicate mechanisms and competing speculation-effects policies.
func (s DefenseStack) Validate() error {
	seen := map[string]bool{}
	effects := ""
	for _, m := range s {
		if m == nil {
			return errors.New("attacks: nil defense mechanism in stack")
		}
		if err := m.Validate(); err != nil {
			return err
		}
		name := m.DefenseName()
		if seen[name] {
			return fmt.Errorf("attacks: duplicate defense mechanism %q", name)
		}
		seen[name] = true
		if _, ok := m.(EffectsMechanism); ok {
			if effects != "" {
				return fmt.Errorf("attacks: conflicting effects policies %q and %q", effects, name)
			}
			effects = name
		}
	}
	return nil
}

// effectsPolicy resolves the stack's speculation-effects policy
// (EffectsImmediate when no EffectsMechanism is stacked).
func (s DefenseStack) effectsPolicy() cpu.EffectsPolicy {
	for _, m := range s {
		if em, ok := m.(EffectsMechanism); ok {
			return em.EffectsPolicy()
		}
	}
	return cpu.EffectsImmediate
}

// tagger returns the stack's ContextTagger, or nil.
func (s DefenseStack) tagger() ContextTagger {
	for _, m := range s {
		if ct, ok := m.(ContextTagger); ok {
			return ct
		}
	}
	return nil
}

// WithoutRandomWindow returns a copy of the stack with any R-type
// mechanism removed, every other mechanism in order.
func (s DefenseStack) WithoutRandomWindow() DefenseStack {
	return slices.DeleteFunc(slices.Clone(s), func(m Mechanism) bool {
		_, ok := m.(rType)
		return ok
	})
}

// WithRandomWindow returns a copy of the stack with any R-type
// mechanism removed and RandomWindow(w) appended — the window-sweep
// transformation, preserving every other mechanism in order.
func (s DefenseStack) WithRandomWindow(w int) DefenseStack {
	return append(s.WithoutRandomWindow(), RandomWindow(w))
}

// MarshalJSON encodes the stack as its canonical string, the form
// result dumps and spec files share.
func (s DefenseStack) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes a canonical stack string (see ParseStack).
func (s *DefenseStack) UnmarshalJSON(data []byte) error {
	var str string
	if err := json.Unmarshal(data, &str); err != nil {
		return err
	}
	st, err := ParseStack(str)
	if err != nil {
		return err
	}
	*s = st
	return nil
}

// ParseStack parses the canonical stack syntax: mechanism tokens
// joined with "+", parameterized tokens carrying their argument in
// parentheses — "A+R(5)+recompute". "none" (or the empty string) is
// the empty stack and composes with nothing.
func ParseStack(s string) (DefenseStack, error) {
	if s == "" || s == "none" {
		return nil, nil
	}
	var stack DefenseStack
	for _, tok := range strings.Split(s, "+") {
		tok = strings.TrimSpace(tok)
		name, arg, hasArg := tok, 0, false
		if i := strings.IndexByte(tok, '('); i >= 0 {
			if !strings.HasSuffix(tok, ")") {
				return nil, fmt.Errorf("attacks: malformed mechanism token %q", tok)
			}
			n, err := strconv.Atoi(tok[i+1 : len(tok)-1])
			if err != nil {
				return nil, fmt.Errorf("attacks: bad argument in %q: %v", tok, err)
			}
			name, arg, hasArg = tok[:i], n, true
		}
		d, ok := MechanismFor(name)
		if !ok {
			tokens := make([]string, len(catalog))
			for i, d := range catalog {
				tokens[i] = d.Token
			}
			return nil, fmt.Errorf("attacks: unknown mechanism %q (mechanisms: %s)", name, strings.Join(tokens, ", "))
		}
		if d.TakesArg != hasArg {
			if d.TakesArg {
				return nil, fmt.Errorf("attacks: mechanism %q needs an argument, e.g. %s(5)", name, name)
			}
			return nil, fmt.Errorf("attacks: mechanism %q takes no argument", name)
		}
		stack = append(stack, d.Build(arg))
	}
	if err := stack.Validate(); err != nil {
		return nil, err
	}
	return stack, nil
}

// aType is the A-type defense (Sec. VI-A): always predict, from the
// history value or a fixed value.
type aType struct{ fixedOnly bool }

// AlwaysPredict returns the A-type mechanism. fixedOnly selects the
// fixed-value flavor ("A-fixed"), which also removes the
// correct-vs-wrong contrast at the cost of almost never predicting
// usefully.
func AlwaysPredict(fixedOnly bool) Mechanism { return aType{fixedOnly: fixedOnly} }

func (a aType) DefenseName() string {
	if a.fixedOnly {
		return "A-fixed"
	}
	return "A"
}

func (a aType) Validate() error { return nil }

// WrapPredictor implements PredictorWrapper.
func (a aType) WrapPredictor(inner predictor.Predictor, _ *rand.Rand) predictor.Predictor {
	if a.fixedOnly {
		return predictor.NewATypeFixed(inner, 0)
	}
	return predictor.NewAType(inner, 0)
}

// rType is the R-type defense: predict within a random window W.
type rType struct{ window int }

// RandomWindow returns the R-type mechanism with window w
// (P(correct) = 1/w). w <= 1 degenerates to no wrapping, which is what
// lets window sweeps start at 1 without perturbing the RNG stream.
func RandomWindow(w int) Mechanism { return rType{window: w} }

func (r rType) DefenseName() string { return fmt.Sprintf("R(%d)", r.window) }

func (r rType) Validate() error {
	if r.window < 0 {
		return errors.New("attacks: negative R window")
	}
	return nil
}

// WrapPredictor implements PredictorWrapper. A window of 1 or less
// returns inner untouched: no wrapper object, no RNG draws, identical
// predictor name — the undefended fast path of a window sweep.
func (r rType) WrapPredictor(inner predictor.Predictor, rng *rand.Rand) predictor.Predictor {
	if r.window <= 1 {
		return inner
	}
	return predictor.NewRType(inner, r.window, rng)
}

// dType is the D-type defense: delay speculative side effects.
type dType struct{}

// DelayEffects returns the D-type mechanism (Sec. VI-A): loads leave
// no cache state until commit.
func DelayEffects() Mechanism { return dType{} }

func (dType) DefenseName() string { return "D" }

func (dType) Validate() error { return nil }

// EffectsPolicy implements EffectsMechanism.
func (dType) EffectsPolicy() cpu.EffectsPolicy { return cpu.EffectsDelay }

// recompute is the value-recomputation defense: like D-type the
// hierarchy stays clean until commit, but a shadow buffer serves
// speculative re-accesses so the slowdown mostly disappears.
type recompute struct{}

// Recompute returns the value-recomputation mechanism.
func Recompute() Mechanism { return recompute{} }

func (recompute) DefenseName() string { return "recompute" }

func (recompute) Validate() error { return nil }

// EffectsPolicy implements EffectsMechanism.
func (recompute) EffectsPolicy() cpu.EffectsPolicy { return cpu.EffectsRecompute }

// flushVPS is the OS-level flush-on-switch defense (Sec. VI-B).
type flushVPS struct{}

// FlushVPS returns the flush-on-context-switch mechanism: predictor
// state is cleared whenever the machine switches processes, severing
// every cross-process variant while leaving same-address-space attacks
// untouched.
func FlushVPS() Mechanism { return flushVPS{} }

func (flushVPS) DefenseName() string { return "flush" }

func (flushVPS) Validate() error { return nil }

// OnContextSwitch implements ContextSwitcher.
func (flushVPS) OnContextSwitch(m *cpu.Machine, prev, next uint64) { m.Pred.Reset() }

// isolate is the context-tagged predictor-isolation defense.
type isolate struct{}

// IsolateContexts returns the context-isolation mechanism: each
// process gets a non-zero isolation-domain tag mixed into every
// predictor index, so entries trained in one process are invisible to
// another — cross-process collisions disappear without flushing any
// state.
func IsolateContexts() Mechanism { return isolate{} }

func (isolate) DefenseName() string { return "isolate" }

func (isolate) Validate() error { return nil }

// ContextTag implements ContextTagger: a splitmix-style mix of the
// PID, forced odd so the tag is never zero (zero means untagged).
func (isolate) ContextTag(pid uint64) uint64 {
	h := (pid + 1) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return h | 1
}
