package defense

import (
	"context"
	"encoding/json"
	"testing"

	"vpsec/internal/attacks"
	"vpsec/internal/core"
)

// TestMechanismRegistryExhaustive: every catalog mechanism is
// reachable through StrategyNamed, and its canonical token round-trips
// through attacks.ParseStack and DefenseStack.String. A mechanism
// someone adds to the catalog but forgets to make addressable — or
// whose token parses into a different mechanism — fails here.
func TestMechanismRegistryExhaustive(t *testing.T) {
	for _, d := range attacks.Mechanisms() {
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
		// Round-trip: parse the rendered form, render again.
		back, err := attacks.ParseStack(m.DefenseName())
		if err != nil {
			t.Errorf("ParseStack(%q): %v", m.DefenseName(), err)
			continue
		}
		if back.String() != m.DefenseName() {
			t.Errorf("round-trip %q -> %q", m.DefenseName(), back.String())
		}
	}
}

// TestEveryNamedStrategyParses: the named catalogs build valid stacks,
// and each stack survives a JSON round trip.
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
		rs, err := attacks.RunCases(context.Background(), seedRanges(core.TrainTest, o))
		if err != nil {
			t.Fatal(err)
		}
		p, _, _ := medianCase(rs)
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
		rs, err := attacks.RunCases(context.Background(), seedRanges(core.TrainTest, o))
		if err != nil {
			t.Fatal(err)
		}
		_, _, c := medianCase(rs)
		return c
	}

	d, r := cyc("D"), cyc("recompute")
	if r > d*1.02 {
		t.Errorf("recompute mean cycles %.0f vs D-type %.0f: shadow buffer should not cost more than delay", r, d)
	}
}
