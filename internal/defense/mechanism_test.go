package defense

import (
	"context"
	"encoding/json"
	"testing"

	"vpsec/internal/attacks"
	"vpsec/internal/core"
)

// TestMechanismRegistryExhaustive: every registered mechanism is
// reachable through StrategyNamed, and its canonical token round-trips
// through ParseStack and DefenseStack.String. A mechanism someone
// registers but forgets to make addressable — or whose token parses
// into a different mechanism — fails here.
func TestMechanismRegistryExhaustive(t *testing.T) {
	for _, d := range Mechanisms() {
		token := d.Token
		if d.TakesArg {
			token += "(5)"
		}
		s, err := StrategyNamed(token)
		if err != nil {
			t.Errorf("mechanism %q not reachable via StrategyNamed: %v", token, err)
			continue
		}
		if len(s.Stack) != 1 {
			t.Errorf("StrategyNamed(%q) stack = %s, want a single mechanism", token, s.Stack)
			continue
		}
		m := s.Stack[0]
		if got := m.DefenseName(); got != token {
			t.Errorf("mechanism %q renders as %q", token, got)
		}
		if got := m.Hooks(); got != d.Hooks {
			t.Errorf("mechanism %q hooks = %b, descriptor says %b", token, got, d.Hooks)
		}
		// Round-trip: parse the rendered form, render again.
		back, err := ParseStack(m.DefenseName())
		if err != nil {
			t.Errorf("ParseStack(%q): %v", m.DefenseName(), err)
			continue
		}
		if back.String() != m.DefenseName() {
			t.Errorf("round-trip %q -> %q", m.DefenseName(), back.String())
		}
		// Every hook bit must come with the matching capability interface.
		if d.Hooks&attacks.HookPredictor != 0 {
			if _, ok := m.(attacks.PredictorWrapper); !ok {
				t.Errorf("mechanism %q declares HookPredictor but is no PredictorWrapper", token)
			}
		}
		if d.Hooks&attacks.HookPipeline != 0 {
			if _, ok := m.(attacks.EffectsMechanism); !ok {
				t.Errorf("mechanism %q declares HookPipeline but is no EffectsMechanism", token)
			}
		}
		if d.Hooks&attacks.HookContext != 0 {
			_, sw := m.(attacks.ContextSwitcher)
			_, tg := m.(attacks.ContextTagger)
			if !sw && !tg {
				t.Errorf("mechanism %q declares HookContext but implements no context capability", token)
			}
		}
	}
}

// TestEveryNamedStrategyParses: the named catalogs build valid stacks,
// and each stack survives a JSON round trip through the registered
// parser.
func TestEveryNamedStrategyParses(t *testing.T) {
	for _, s := range append(Strategies(), ExtendedStrategies()...) {
		if err := s.Stack.Validate(); err != nil {
			t.Errorf("strategy %q: %v", s.Name, err)
		}
		blob, err := json.Marshal(s.Stack)
		if err != nil {
			t.Fatalf("strategy %q: marshal: %v", s.Name, err)
		}
		var back attacks.DefenseStack
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("strategy %q: unmarshal %s: %v", s.Name, blob, err)
		}
		if back.String() != s.Stack.String() {
			t.Errorf("strategy %q: JSON round-trip %q -> %q", s.Name, s.Stack, back)
		}
	}
}

func TestParseStackErrors(t *testing.T) {
	for _, bad := range []string{
		"B",           // unknown mechanism
		"R",           // missing argument
		"A(3)",        // argument on an argument-less mechanism
		"R(x)",        // malformed argument
		"R(3",         // unbalanced parens
		"D+D",         // duplicate mechanism
		"D+recompute", // conflicting effects policies
		"R(-2)",       // negative window
	} {
		if _, err := ParseStack(bad); err == nil {
			t.Errorf("ParseStack(%q) should fail", bad)
		}
	}
	if st, err := ParseStack("none"); err != nil || st != nil {
		t.Errorf("ParseStack(none) = %v, %v; want empty stack", st, err)
	}
}

// TestLegacyCombinedNameKeepsFixedFlavor pins the historical quirk:
// the named "A+R(5)" strategy uses the fixed A-type flavor, while the
// same string parsed as a stack uses the history flavor. Named lookup
// must win so legacy results stay byte-identical.
func TestLegacyCombinedNameKeepsFixedFlavor(t *testing.T) {
	s, err := StrategyNamed("A+R(5)")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stack.String(); got != "A-fixed+R(5)" {
		t.Errorf("named A+R(5) stack = %q, want A-fixed+R(5)", got)
	}
}

// TestNewMechanismsDefend: the two post-paper mechanisms each close a
// previously leaking matrix cell — recomputation kills Train+Test's
// persistent variant (like D-type, but cheaper on re-access latency),
// isolation kills the cross-process timing-window variant.
func TestNewMechanismsDefend(t *testing.T) {
	opt := baseOpt()
	opt.Runs = 40

	check := func(name string, ch core.Channel, wantDefended bool) {
		t.Helper()
		s, err := StrategyNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		o := opt
		o.Channel = ch
		o.Defense = s.Stack
		p, _, _, err := medianCase(context.Background(), core.TrainTest, o)
		if err != nil {
			t.Fatal(err)
		}
		if got := !(p < 0.05); got != wantDefended {
			t.Errorf("%s on Train+Test/%v: defended=%v (p=%.4f), want %v", name, ch, got, p, wantDefended)
		}
	}

	// Baseline leaks on both channels.
	check("none", core.Persistent, false)
	check("none", core.TimingWindow, false)
	// Recomputation closes the persistent channel but, like D-type,
	// leaves the timing-window contrast alone.
	check("recompute", core.Persistent, true)
	check("recompute", core.TimingWindow, false)
	// Isolation severs the cross-process predictor collision entirely.
	check("isolate", core.TimingWindow, true)
	check("isolate", core.Persistent, true)
}

// TestRecomputeCheaperThanDelay: the whole point of the shadow buffer
// is recovering D-type's slowdown; on the persistent-channel workload
// (probe loops re-access speculative lines heavily) recomputation must
// not be slower than plain delay.
func TestRecomputeCheaperThanDelay(t *testing.T) {
	opt := baseOpt()
	opt.Runs = 40
	opt.Channel = core.Persistent

	cyc := func(name string) float64 {
		t.Helper()
		s, err := StrategyNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		o := opt
		o.Defense = s.Stack
		_, _, c, err := medianCase(context.Background(), core.TrainTest, o)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	d, r := cyc("D"), cyc("recompute")
	if r > d*1.02 {
		t.Errorf("recompute mean cycles %.0f vs D-type %.0f: shadow buffer should not cost more than delay", r, d)
	}
}
