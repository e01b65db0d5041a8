// Package cachebench ports Deng, Xiong & Szefer's cache-vulnerability
// benchmark suite ("A Benchmark Suite for Evaluating Caches'
// Vulnerability to Timing Attacks") onto this repo's simulated memory
// hierarchy. Their insight is that every cache timing attack reduces
// to a three-step pattern: three operations on one cache block,
// performed by the attacker (A) or the victim (V), where the third
// step is timed. The secret is which address u the victim touched; the
// attack works when the step-3 timing distinguishes "u maps to the
// attacker-known line/set" from "u maps elsewhere".
//
// The package enumerates that taxonomy mechanically over an
// eleven-state step alphabet (see Step), lowers every case to a
// deterministic .vasm program pair (mapped and unmapped arm, assembled
// through internal/asm), executes the pair against an L1/L2 hierarchy
// built from internal/mem, and decides vulnerability with the
// repository's standard decision procedure: Welch's t-test on the
// step-3 latency samples, cross-checked by the Mann-Whitney U test.
// The headline artifact is the vulnerability matrix — every enumerated
// case with p-values, effect sizes and a VULNERABLE/safe verdict —
// rendered deterministically so it can be golden-gated and served
// byte-identically from the experiment server's result cache.
//
// The paper reduces its taxonomy by hand to 88 "types"; the mechanical
// enumeration here (Family) keeps every candidate pattern — 976 cases
// = 488 step triples x 2 mapped-address relations — and lets the
// simulated hierarchy decide empirically which ones leak. The paper's
// named attacks (Flush+Reload, Flush+Flush, Prime+Probe, Evict+Time,
// cache internal collisions, ...) appear as specific cells
// (KnownAttacks) and are annotated in the matrix. Limitations lists
// the model simplifications the matrix report footnotes.
package cachebench

import (
	"fmt"
	"strings"
)

// Step is one operation of a three-step pattern: which party acts, on
// which address, and whether the operation is an access (load) or an
// invalidation (flush). The addresses are the benchmark paper's:
//
//   - u: the victim's secret-dependent address. In the mapped arm of a
//     trial u maps to the attacker-known line or set (see Relation);
//     in the unmapped arm it maps to an unrelated set ("NIB" — not in
//     block — in the paper's notation).
//   - a: a fixed line the attacker knows (paper: a).
//   - the alias set: ConflictWays lines set-congruent with a in both
//     L1 and L2 (paper: a_alias). A single congruent line cannot evict
//     anything from an 8-way LRU set, so alias steps operate on a full
//     eviction set — the same realization real prime/evict attacks
//     use.
//
// Star is the paper's ⋆ — the party does nothing in that step.
type Step uint8

// The step alphabet. Slugs are single tokens (no internal dashes) so a
// pattern name splits unambiguously on "-".
const (
	// Star is the paper's ⋆: no operation this step.
	Star Step = iota
	// VU is V_u: the victim accesses its secret-dependent address u.
	VU
	// FVU is V_u^inv: the victim flushes u.
	FVU
	// AA is A_a: the attacker accesses the known line a.
	AA
	// FAA is A_a^inv: the attacker flushes a.
	FAA
	// VA is V_a: the victim accesses the known line a.
	VA
	// FVA is V_a^inv: the victim flushes a.
	FVA
	// AAL is A_alias: the attacker accesses a's alias eviction set.
	AAL
	// FAAL is A_alias^inv: the attacker flushes a's alias eviction set.
	FAAL
	// VAL is V_alias: the victim accesses a's alias eviction set.
	VAL
	// FVAL is V_alias^inv: the victim flushes a's alias eviction set.
	FVAL
	numSteps
)

// Steps lists the full step alphabet in enumeration order.
func Steps() []Step {
	out := make([]Step, 0, numSteps)
	for s := Star; s < numSteps; s++ {
		out = append(out, s)
	}
	return out
}

var stepSlugs = [numSteps]string{
	Star: "star", VU: "vu", FVU: "fvu", AA: "aa", FAA: "faa",
	VA: "va", FVA: "fva", AAL: "aal", FAAL: "faal", VAL: "val", FVAL: "fval",
}

var stepPaper = [numSteps]string{
	Star: "*", VU: "V_u", FVU: "V_u^inv", AA: "A_a", FAA: "A_a^inv",
	VA: "V_a", FVA: "V_a^inv", AAL: "A_alias", FAAL: "A_alias^inv",
	VAL: "V_alias", FVAL: "V_alias^inv",
}

// Slug returns the step's name-fragment spelling (e.g. "faa").
func (s Step) Slug() string {
	if s < numSteps {
		return stepSlugs[s]
	}
	return fmt.Sprintf("step(%d)", uint8(s))
}

// Paper returns the step in the benchmark paper's notation
// (e.g. "A_a^inv").
func (s Step) Paper() string {
	if s < numSteps {
		return stepPaper[s]
	}
	return s.Slug()
}

// Victim reports whether the victim performs the step.
func (s Step) Victim() bool {
	switch s {
	case VU, FVU, VA, FVA, VAL, FVAL:
		return true
	}
	return false
}

// Flush reports whether the step is an invalidation (clflush) rather
// than an access.
func (s Step) Flush() bool {
	switch s {
	case FVU, FAA, FVA, FAAL, FVAL:
		return true
	}
	return false
}

// UsesU reports whether the step operates on the victim's
// secret-dependent address u.
func (s Step) UsesU() bool { return s == VU || s == FVU }

// UsesAlias reports whether the step operates on the alias eviction
// set.
func (s Step) UsesAlias() bool {
	switch s {
	case AAL, FAAL, VAL, FVAL:
		return true
	}
	return false
}

// ParseStep maps a slug back to its step.
func ParseStep(slug string) (Step, error) {
	for s := Star; s < numSteps; s++ {
		if stepSlugs[s] == slug {
			return s, nil
		}
	}
	return 0, fmt.Errorf("cachebench: unknown step %q (steps: %s)", slug, strings.Join(stepSlugs[:], " "))
}

// Relation selects how the mapped arm places the secret address u
// relative to the attacker-known line a. The benchmark paper's
// vulnerability types distinguish the same three-step pattern with
// u = a (reuse/hit-based leaks, e.g. Flush+Reload) from u congruent
// with a (conflict/eviction-based leaks, e.g. Prime+Probe), so the
// relation is part of the case identity here.
type Relation uint8

// The two mapped-arm placements of u.
const (
	// RelLine maps u onto a's exact line (u = a): reuse-based leaks.
	RelLine Relation = iota
	// RelSet maps u onto a line set-congruent with a (and with the
	// alias eviction set) in both L1 and L2, but distinct from a:
	// conflict-based leaks.
	RelSet
	numRelations
)

var relSlugs = [numRelations]string{RelLine: "line", RelSet: "set"}

// Slug returns the relation's name fragment ("line" or "set").
func (r Relation) Slug() string {
	if r < numRelations {
		return relSlugs[r]
	}
	return fmt.Sprintf("rel(%d)", uint8(r))
}

// ParseRelation maps a slug back to its relation.
func ParseRelation(slug string) (Relation, error) {
	for r := RelLine; r < numRelations; r++ {
		if relSlugs[r] == slug {
			return r, nil
		}
	}
	return 0, fmt.Errorf("cachebench: unknown relation %q (want line or set)", slug)
}

// Pattern is one three-step case: the step triple plus the mapped-arm
// placement of u. Its String form ("faa-vu-aa-line") is the case's
// identity everywhere — scenario names prepend "cachebench-" to it.
type Pattern struct {
	S1, S2, S3 Step
	Rel        Relation
}

// String renders the canonical pattern spelling,
// "<s1>-<s2>-<s3>-<rel>".
func (p Pattern) String() string {
	return p.S1.Slug() + "-" + p.S2.Slug() + "-" + p.S3.Slug() + "-" + p.Rel.Slug()
}

// Paper renders the pattern in the benchmark paper's notation, e.g.
// "A_a^inv ~> V_u ~> A_a (u = a)".
func (p Pattern) Paper() string {
	rel := "u = a"
	if p.Rel == RelSet {
		rel = "u ~ a (set-congruent)"
	}
	return p.S1.Paper() + " ~> " + p.S2.Paper() + " ~> " + p.S3.Paper() + " (" + rel + ")"
}

// Attack returns the conventional attack name of the pattern
// (Flush+Reload, Prime+Probe, ...) when it has one, else "".
func (p Pattern) Attack() string {
	for _, k := range knownAttacks {
		if k.Pattern == p {
			return k.Name
		}
	}
	return ""
}

// ParsePattern parses the String form back into a pattern. The
// spelling must be canonical: four slugs joined by "-".
func ParsePattern(s string) (Pattern, error) {
	if strings.Count(s, "-") != 3 {
		return Pattern{}, fmt.Errorf("cachebench: pattern %q is not <step>-<step>-<step>-<line|set>", s)
	}
	s1, rest, _ := strings.Cut(s, "-")
	s2, rest, _ := strings.Cut(rest, "-")
	s3, rel, _ := strings.Cut(rest, "-")
	var p Pattern
	var err error
	if p.S1, err = ParseStep(s1); err != nil {
		return Pattern{}, err
	}
	if p.S2, err = ParseStep(s2); err != nil {
		return Pattern{}, err
	}
	if p.S3, err = ParseStep(s3); err != nil {
		return Pattern{}, err
	}
	if p.Rel, err = ParseRelation(rel); err != nil {
		return Pattern{}, err
	}
	if err := p.valid(); err != nil {
		return Pattern{}, err
	}
	return p, nil
}

// valid applies the enumeration rules to a parsed pattern, so ad-hoc
// specs cannot name cases outside the family.
func (p Pattern) valid() error {
	if broken := p.brokenRule(); broken != "" {
		return fmt.Errorf("cachebench: pattern %s: %s", p, broken)
	}
	return nil
}

// brokenRule returns the first of Family's enumeration rules that p
// breaks, or "" when p is in the family. Family tests it directly, so
// enumerating formats no error for the patterns it drops.
func (p Pattern) brokenRule() string {
	switch {
	case p.S3 == Star:
		return "step 3 is the timed observation and cannot be *"
	case p.S1 == p.S2 || p.S2 == p.S3:
		return "adjacent steps repeat (idempotent, excluded from the family)"
	case !p.S1.UsesU() && !p.S2.UsesU() && !p.S3.UsesU():
		return "no step touches the secret address u"
	}
	return ""
}

// Family enumerates the whole benchmark family in a fixed, documented
// order: step 1, step 2, step 3 over the alphabet in Step order, and
// the relation innermost — filtered by three rules derived from the
// paper's reduction:
//
//  1. Step 3 is the timed observation, so it cannot be ⋆.
//  2. Some step must touch the secret address u (V_u or V_u^inv) —
//     otherwise no secret participates and nothing can leak.
//  3. Adjacent steps never repeat: an immediately repeated access or
//     flush is idempotent on cache state and timing, so the repeated
//     spelling is the same case.
//
// This keeps 488 step triples; crossed with the two u relations the
// family is 976 cases. (The paper reduces further by hand — collapsing
// cases its analysis proves equivalent or unexploitable — down to its
// 88 types; the mechanical family is a superset, and the matrix report
// shows empirically which cases this hierarchy actually leaks on.)
func Family() []Pattern {
	var out []Pattern
	for _, s1 := range Steps() {
		for _, s2 := range Steps() {
			for _, s3 := range Steps() {
				for rel := RelLine; rel < numRelations; rel++ {
					p := Pattern{S1: s1, S2: s2, S3: s3, Rel: rel}
					if p.brokenRule() == "" {
						out = append(out, p)
					}
				}
			}
		}
	}
	return out
}

// KnownAttack names a pattern that corresponds to a published attack.
type KnownAttack struct {
	Pattern Pattern
	Name    string
}

// KnownAttacks lists the canonical published attacks as cells of the
// family, in matrix order. The matrix report annotates these rows.
func KnownAttacks() []KnownAttack {
	return append([]KnownAttack(nil), knownAttacks[:]...)
}

// knownAttacks is the table KnownAttacks copies out and Attack reads.
var knownAttacks = [...]KnownAttack{
	{Pattern{FAA, VU, AA, RelLine}, "Flush+Reload"},
	{Pattern{FAA, VU, FAA, RelLine}, "Flush+Flush"},
	{Pattern{FAA, VU, VA, RelLine}, "Cache Internal Collision"},
	{Pattern{VU, FAA, VU, RelLine}, "Flush+Time"},
	{Pattern{AAL, VU, AAL, RelSet}, "Prime+Probe"},
	{Pattern{VU, AAL, VU, RelSet}, "Evict+Time"},
}

// ShrunkPatterns is the curated matrix the registered
// "cachebench-matrix" scenario evaluates (and `make cachebench`
// golden-gates): every known attack plus expected-safe control cases
// that pin the model's negative behavior — single-line conflicts that
// 8-way LRU absorbs, probes of untouched lines, and attacker-free
// patterns.
func ShrunkPatterns() []string {
	pats := []Pattern{
		// The published attacks.
		{FAA, VU, AA, RelLine},
		{FAA, VU, FAA, RelLine},
		{FAA, VU, VA, RelLine},
		{VU, FAA, VU, RelLine},
		{AAL, VU, AAL, RelSet},
		{VU, AAL, VU, RelSet},
		// Variants that should also leak on this hierarchy.
		{VU, AAL, VU, RelLine},  // evict+time with u = a
		{Star, VU, AA, RelLine}, // cold-start reload (no flush needed)
		{FVU, AA, FVU, RelLine}, // victim-side flush timing
		// Expected-safe controls.
		{AA, VU, AA, RelLine}, // single-line prime: u = a just re-hits
		{AA, VU, AA, RelSet},  // single congruent line cannot evict (8-way)
		{FAA, VU, AA, RelSet}, // flush+reload needs line reuse, not set contact
		{Star, FVU, AA, RelLine},
		{VU, Star, VU, RelLine}, // no attacker step between victim accesses
		{FAAL, VU, AAL, RelSet}, // probing freshly flushed set misses either way
		{VU, FAAL, VU, RelSet},  // flushing aliases leaves u itself cached
	}
	out := make([]string, len(pats))
	for i, p := range pats {
		out[i] = p.String()
	}
	return out
}

// Limitations lists the model simplifications behind the matrix — the
// footnotes every rendered report carries, mirrored by the
// internal/mem conflict-set tests that pin the behaviors they
// describe.
func Limitations() []string {
	return []string{
		"attacker and victim share one core and one address space: party labels attribute steps but do not change timing, so A/V-swapped twins report identical statistics",
		"\"alias\" steps operate on a full 8-line eviction set congruent in both L1 and L2 (32 KiB stride); a single congruent line cannot evict from the 8-way LRU sets, so single-line conflict cases report safe",
		"clflush is modeled with presence-dependent latency (30 cycles, +12 if the line is cached) so flush-timing cases are decidable; the pipeline's own flush charges nothing",
		"every trial starts from a cold, reset hierarchy: patterns that need a pre-primed line rely on step 1 to establish it",
		"the benchmark hierarchy has no TLB, no prefetcher, and a non-inclusive L2 (evictions do not back-invalidate L1): timing differences are pure L1/L2/DRAM effects",
		"stores write through to backing memory without touching cache state, so write-based channels are out of scope: only loads and flushes transition the caches",
	}
}
