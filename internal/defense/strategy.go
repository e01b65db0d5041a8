package defense

import (
	"fmt"

	"vpsec/internal/attacks"
)

// Strategy is a named defense stack evaluated in the matrix. Name is
// the display label; for the legacy Sec. VI-B strategies it can differ
// from the stack's canonical string (the "A+R(5)" label historically
// meant the fixed-flavor A-type, i.e. stack "A-fixed+R(5)").
type Strategy struct {
	Name  string
	Stack attacks.DefenseStack
}

// Strategies returns the configurations Sec. VI-B discusses — the
// legacy catalog whose names, order and semantics are pinned by the
// golden matrix renders (changing any of them breaks byte-identity
// with every previously published result).
func Strategies() []Strategy {
	return []Strategy{
		{"none", nil},
		{"A", attacks.Stack(attacks.AlwaysPredict(false))},
		{"A-fixed", attacks.Stack(attacks.AlwaysPredict(true))},
		{"R(3)", attacks.Stack(attacks.RandomWindow(3))},
		{"R(5)", attacks.Stack(attacks.RandomWindow(5))},
		{"R(9)", attacks.Stack(attacks.RandomWindow(9))},
		{"D", attacks.Stack(attacks.DelayEffects())},
		{"flush", attacks.Stack(attacks.FlushVPS())},
		// Legacy quirk, kept for byte-identity: the "A+R(5)" strategy
		// always used the fixed A-type flavor (it reproduces the paper's
		// Test+Hit window-5 combination, which needs the flat fallback).
		{"A+R(5)", attacks.Stack(attacks.AlwaysPredict(true), attacks.RandomWindow(5))},
		{"A+R(3)", attacks.Stack(attacks.AlwaysPredict(false), attacks.RandomWindow(3))},
		{"A+R(9)+D", attacks.Stack(attacks.AlwaysPredict(false), attacks.RandomWindow(9), attacks.DelayEffects())},
	}
}

// ExtendedStrategies returns the post-paper mechanism classes the
// matrix can additionally evaluate: value recomputation and
// context-tagged predictor isolation.
func ExtendedStrategies() []Strategy {
	return []Strategy{
		{"recompute", attacks.Stack(attacks.Recompute())},
		{"isolate", attacks.Stack(attacks.IsolateContexts())},
	}
}

// Catalog returns every named strategy: Strategies, then
// ExtendedStrategies.
func Catalog() []Strategy { return append(Strategies(), ExtendedStrategies()...) }

// CatalogNames returns the names of Catalog, in order.
func CatalogNames() []string {
	var names []string
	for _, s := range Catalog() {
		names = append(names, s.Name)
	}
	return names
}

// StrategyNamed resolves a strategy: the named catalogs first (legacy
// Sec. VI-B names keep their exact historical stacks, extended names
// their mechanism), then any canonical stack string — so arbitrary
// compositions like "A+R(5)+recompute" are addressable anywhere a
// strategy name is accepted.
func StrategyNamed(name string) (Strategy, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	stack, err := attacks.ParseStack(name)
	if err != nil {
		return Strategy{}, fmt.Errorf("defense: unknown strategy %q: %v", name, err)
	}
	return Strategy{Name: name, Stack: stack}, nil
}
