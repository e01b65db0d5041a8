package core

// The paper states that of the 576 candidate patterns "the majority do
// not represent attacks or can be reduced to simpler patterns" and
// that exactly 12 effective attacks remain (Table II), but omits the
// rule set "due to limited space". This file supplies an explicit,
// documented rule set with that property; TestTableII asserts the
// enumeration reproduces Table II exactly.

// Rule is a named reduction predicate: Keep returns false when the
// pattern is rejected (not an attack, or reducible to a simpler one).
type Rule struct {
	Name   string
	Why    string
	Reject func(Pattern) bool
}

// Rules returns the reduction rule set in evaluation order.
func Rules() []Rule {
	return []Rule{
		{
			Name: "secret-presence",
			Why: "A pattern with only known accesses carries no " +
				"secret-dependent state; nothing can leak.",
			Reject: func(p Pattern) bool {
				return !p.Train.Secret() &&
					!(p.HasModify && p.Modify.Secret()) &&
					!p.Trigger.Secret()
			},
		},
		{
			Name: "kind-consistency",
			Why: "Data-value attacks compare values at one predictor " +
				"entry; index attacks detect collisions between entries. " +
				"Actions of mixed kinds interrogate different state and " +
				"do not compose into a single leak.",
			Reject: func(p Pattern) bool {
				k := p.Train.Kind
				if p.HasModify && p.Modify.Kind != k {
					return true
				}
				return p.Trigger.Kind != k
			},
		},
		{
			Name: "canonical-secret-order",
			Why: "D''/I'' denotes the second distinct secret access; a " +
				"pattern using a double-primed secret before (or without) " +
				"the primed one is a renaming of a simpler pattern.",
			Reject: func(p Pattern) bool {
				seenFirst := false
				for _, step := range p.steps() {
					switch step.Secrecy {
					case Secret1:
						seenFirst = true
					case Secret2:
						if !seenFirst {
							return true
						}
					}
				}
				return false
			},
		},
		{
			Name: "index-probe-shape",
			Why: "An index attack detects interference between a known " +
				"entry and the secret-dependent entry, so it needs all " +
				"three steps: train and trigger must reference the same " +
				"symbol (both the known index, or both the secret index " +
				"I') with the modify step being the opposite one. A single " +
				"secret index suffices — I'' adds no detectable state — " +
				"and two-step index patterns leave nothing to interfere " +
				"with, reducing to data attacks (footnote 4).",
			Reject: func(p Pattern) bool {
				if p.Train.Kind != Index {
					return false // data patterns: next rule
				}
				if !p.HasModify {
					return true
				}
				for _, s := range p.steps() {
					if s.Secrecy == Secret2 {
						return true
					}
				}
				// Train/trigger must be the same symbol (kind+secrecy,
				// any party); modify must be the opposite secrecy.
				if p.Train.Secrecy != p.Trigger.Secrecy {
					return true
				}
				if p.Train.Secrecy == Known {
					return p.Modify.Secrecy != Secret1
				}
				return p.Modify.Secrecy != Known
			},
		},
		{
			Name: "data-comparison-shape",
			Why: "A data attack compares exactly two data symbols at one " +
				"entry. Two-step forms: train X, trigger Y with {X,Y} = " +
				"{K, D'} (Train+Hit / Test+Hit) or {D', D''} (Fill Up). " +
				"The only three-step form is Spill Over (D', D'', D'), " +
				"which detects D'=D'' through the confidence reset; any " +
				"other modify step retrains the same symbol or reduces to " +
				"a two-step pattern (footnote 6).",
			Reject: func(p Pattern) bool {
				if p.Train.Kind != Data {
					return false
				}
				if !p.HasModify {
					a, b := p.Train.Secrecy, p.Trigger.Secrecy
					ok := (a == Known && b == Secret1) ||
						(a == Secret1 && b == Known) ||
						(a == Secret1 && b == Secret2)
					return !ok
				}
				ok := p.Train.Secrecy == Secret1 &&
					p.Modify.Secrecy == Secret2 &&
					p.Trigger.Secrecy == Secret1 &&
					p.Train.Party == Sender &&
					p.Trigger.Party == Sender
				return !ok
			},
		},
	}
}

// steps returns the pattern's populated actions in order. It inlines,
// so the rules that range over it allocate nothing.
func (p Pattern) steps() []Action {
	if p.HasModify {
		return []Action{p.Train, p.Modify, p.Trigger}
	}
	return []Action{p.Train, p.Trigger}
}

// Classify names the category of a surviving pattern.
func Classify(p Pattern) Category {
	if p.Train.Kind == Index {
		if p.Train.Secrecy == Known {
			return TrainTest // known trained, secret modifies, known triggers
		}
		return ModifyTest // secret trained, known modifies, secret triggers
	}
	// Data patterns.
	if p.HasModify {
		return SpillOver
	}
	switch {
	case p.Train.Secrecy == Known && p.Trigger.Secrecy == Secret1:
		return TrainHit
	case p.Train.Secrecy == Secret1 && p.Trigger.Secrecy == Known:
		return TestHit
	default:
		return FillUp
	}
}

// Variant is one effective attack: a surviving pattern plus its
// category.
type Variant struct {
	Pattern  Pattern
	Category Category
}

// Reduce applies the rules to all 576 patterns and returns the
// surviving variants — Table II.
func Reduce() []Variant {
	rules := Rules()
	var out []Variant
	for _, p := range AllPatterns() {
		rejected := false
		for _, r := range rules {
			if r.Reject(p) {
				rejected = true
				break
			}
		}
		if !rejected {
			out = append(out, Variant{Pattern: p, Category: Classify(p)})
		}
	}
	return out
}

// RejectionHistogram reports, for each rule, how many of the 576
// patterns it rejects first (in rule order) — the soundness-analysis
// view the paper had to omit.
func RejectionHistogram() map[string]int {
	rules := Rules()
	hist := make(map[string]int, len(rules)+1)
	for _, p := range AllPatterns() {
		rejected := false
		for _, r := range rules {
			if r.Reject(p) {
				hist[r.Name]++
				rejected = true
				break
			}
		}
		if !rejected {
			hist["(kept)"]++
		}
	}
	return hist
}
