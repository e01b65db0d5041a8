// Package core implements the paper's primary contribution: the
// systematic model for analyzing value predictor attacks (Sec. V).
//
// An attack is a pattern of three predictor-state steps — train,
// modify, trigger — followed by encode and decode steps that move the
// observation through a microarchitectural channel. Each of the first
// three steps is one of the actions of Table I (who accesses what:
// sender/receiver × known/secret × data/index), the modify step may
// also be empty. That gives 8 × 9 × 8 = 576 candidate patterns; the
// reduction rules in rules.go cut them to the 12 effective attacks of
// Table II, grouped into 6 categories.
package core

// Party is who performs a step.
type Party uint8

// Parties: the sender (victim, has logical access to the secret) and
// the receiver (attacker).
const (
	Sender Party = iota
	Receiver
)

// String is the party's Table I letter: S or R.
func (p Party) String() string {
	if p == Sender {
		return "S"
	}
	return "R"
}

// Kind is the addressing aspect an action exercises. Data-value
// attacks leak what a load returns; index attacks leak which predictor
// entry (PC or data address) was touched.
type Kind uint8

// Kinds.
const (
	Data Kind = iota
	Index
)

// String is the kind's Table I letter: D or I.
func (k Kind) String() string {
	if k == Data {
		return "D"
	}
	return "I"
}

// Secrecy classifies an action's operand.
type Secrecy uint8

// Secrecy levels: known to its issuer, first secret (D'/I'), second
// secret (D”/I” — used when an attack compares two secret-related
// accesses, e.g. Spill Over).
const (
	Known Secrecy = iota
	Secret1
	Secret2
)

// String is the secrecy's Table I mark: K, or S with one or two primes.
func (s Secrecy) String() string {
	switch s {
	case Known:
		return "K"
	case Secret1:
		return "S'"
	}
	return "S''"
}

// Action is one row of Table I: a party making an access of a given
// kind and secrecy. The zero Action is S^KD.
type Action struct {
	Party   Party
	Kind    Kind
	Secrecy Secrecy
}

// String renders the paper's notation, e.g. S^KD, R^KI, S^SD'.
func (a Action) String() string {
	switch a.Secrecy {
	case Known:
		return a.Party.String() + "^K" + a.Kind.String()
	case Secret1:
		return a.Party.String() + "^S" + a.Kind.String() + "'"
	case Secret2:
		return a.Party.String() + "^S" + a.Kind.String() + "''"
	}
	return a.Party.String() + "^"
}

// Secret reports whether the action touches secret data or a
// secret-dependent index.
func (a Action) Secret() bool { return a.Secrecy != Known }

// Valid reports whether the action can exist under the threat model:
// only the sender has logical access to the secret (Table I defines no
// R^SD/R^SI rows).
func (a Action) Valid() bool {
	return !(a.Party == Receiver && a.Secret())
}

// Actions enumerates the 8 valid actions of Table I in a stable order.
func Actions() []Action {
	var out []Action
	// Known accesses by either party, both kinds.
	for _, p := range []Party{Sender, Receiver} {
		for _, k := range []Kind{Data, Index} {
			out = append(out, Action{p, k, Known})
		}
	}
	// Secret accesses: sender only.
	for _, k := range []Kind{Data, Index} {
		for _, s := range []Secrecy{Secret1, Secret2} {
			out = append(out, Action{Sender, k, s})
		}
	}
	return out
}

// ActionDescriptions returns Table I: each action with the paper's
// description.
func ActionDescriptions() map[string]string {
	return map[string]string{
		"S^KD":   "Sender makes access to data that it knows.",
		"S^KI":   "Sender makes access to an index that it knows.",
		"R^KD":   "Receiver makes access to data that it knows.",
		"R^KI":   "Receiver makes access to an index that it knows.",
		"S^SD'":  "Sender accesses secret data the receiver tries to learn.",
		"S^SD''": "Sender accesses a second secret datum; the receiver learns whether D' and D'' are the same.",
		"S^SI'":  "Sender accesses a secret-dependent index the receiver tries to learn.",
		"S^SI''": "Sender accesses a second secret-dependent index.",
		"—":      "This step is not used (modify step only).",
	}
}

// Pattern is one candidate attack: train and trigger actions plus an
// optional modify action.
type Pattern struct {
	Train     Action
	Modify    Action
	HasModify bool
	Trigger   Action
}

// String renders e.g. "S^KI, S^SI', R^KI" or "S^SD', —, S^KD".
func (p Pattern) String() string {
	mod := "—"
	if p.HasModify {
		mod = p.Modify.String()
	}
	return p.Train.String() + ", " + mod + ", " + p.Trigger.String()
}

// Category names the attack class a surviving pattern belongs to
// (Sec. V-B).
type Category string

// The six attack categories of Table II.
const (
	TrainTest  Category = "Train + Test"
	TestHit    Category = "Test + Hit"
	TrainHit   Category = "Train + Hit"
	SpillOver  Category = "Spill Over"
	FillUp     Category = "Fill Up"
	ModifyTest Category = "Modify + Test"
)

// Categories lists all six in the paper's presentation order.
func Categories() []Category {
	return []Category{TrainTest, TestHit, TrainHit, SpillOver, FillUp, ModifyTest}
}

// AllPatterns enumerates the full 576-pattern space: 8 train actions ×
// 9 modify options (8 actions + empty) × 8 trigger actions.
func AllPatterns() []Pattern {
	acts := Actions()
	var out []Pattern
	for _, tr := range acts {
		for m := -1; m < len(acts); m++ {
			for _, tg := range acts {
				p := Pattern{Train: tr, Trigger: tg}
				if m >= 0 {
					p.Modify = acts[m]
					p.HasModify = true
				}
				out = append(out, p)
			}
		}
	}
	return out
}
