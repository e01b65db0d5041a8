package cachebench

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vpsec/internal/cpu"
	"vpsec/internal/isa"
	"vpsec/internal/mem"
)

// TestFamilyCount pins the enumeration: 11^3 step triples filtered by
// the three rules leave 488, times two u relations = 976 cases. A
// change here is a change to the benchmark's identity and must be
// deliberate (goldens, registry, docs all count it).
func TestFamilyCount(t *testing.T) {
	fam := Family()
	if len(fam) != 976 {
		t.Fatalf("family size = %d, want 976", len(fam))
	}
	seen := map[string]bool{}
	for _, p := range fam {
		s := p.String()
		if seen[s] {
			t.Fatalf("duplicate family member %s", s)
		}
		seen[s] = true
		if err := p.valid(); err != nil {
			t.Fatalf("family member %s invalid: %v", s, err)
		}
	}
}

// TestFamilyRules spot-checks the three enumeration rules.
func TestFamilyRules(t *testing.T) {
	for _, p := range Family() {
		if p.S3 == Star {
			t.Fatalf("%s: step 3 is *", p)
		}
		if p.S1 == p.S2 || p.S2 == p.S3 {
			t.Fatalf("%s: adjacent steps repeat", p)
		}
		if !p.S1.UsesU() && !p.S2.UsesU() && !p.S3.UsesU() {
			t.Fatalf("%s: no step touches u", p)
		}
	}
}

// TestParsePatternRoundTrip: String -> ParsePattern is the identity on
// the whole family.
func TestParsePatternRoundTrip(t *testing.T) {
	for _, p := range Family() {
		q, err := ParsePattern(p.String())
		if err != nil {
			t.Fatalf("ParsePattern(%s): %v", p, err)
		}
		if q != p {
			t.Fatalf("round trip %s -> %s", p, q)
		}
	}
}

// TestParsePatternRejects: spellings outside the family fail with a
// diagnostic.
func TestParsePatternRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"vu-aa",                // wrong arity
		"vu-aa-star-line",      // timed step is *
		"vu-vu-aa-line",        // adjacent repeat (1,2)
		"faa-vu-vu-line",       // adjacent repeat (2,3)
		"aa-va-aa-line",        // no u step
		"xx-vu-aa-line",        // unknown step
		"faa-vu-aa-diag",       // unknown relation
		"faa-vu-aa-line-extra", // trailing junk
		"A_a^inv-V_u-A_a-line", // paper notation is not the slug form
	} {
		if _, err := ParsePattern(bad); err == nil {
			t.Errorf("ParsePattern(%q) accepted", bad)
		}
	}
}

// TestKnownAttacksEnumerated: every published attack is a member of
// the family and of the curated shrunk matrix.
func TestKnownAttacksEnumerated(t *testing.T) {
	inFamily := map[Pattern]bool{}
	for _, p := range Family() {
		inFamily[p] = true
	}
	shrunk := map[string]bool{}
	for _, s := range ShrunkPatterns() {
		if _, err := ParsePattern(s); err != nil {
			t.Fatalf("shrunk pattern %q: %v", s, err)
		}
		shrunk[s] = true
	}
	for _, k := range KnownAttacks() {
		if !inFamily[k.Pattern] {
			t.Errorf("%s (%s) not in family", k.Name, k.Pattern)
		}
		if !shrunk[k.Pattern.String()] {
			t.Errorf("%s (%s) not in the shrunk matrix", k.Name, k.Pattern)
		}
		if got := k.Pattern.Attack(); got != k.Name {
			t.Errorf("Attack(%s) = %q, want %q", k.Pattern, got, k.Name)
		}
	}
}

// TestCompileFamily: every case lowers to a valid program in both
// arms, and the mapped/unmapped sources differ only in the u address.
func TestCompileFamily(t *testing.T) {
	for _, p := range Family() {
		for _, mapped := range []bool{true, false} {
			if _, err := p.Compile(mapped); err != nil {
				t.Fatalf("compile %s mapped=%v: %v", p, mapped, err)
			}
		}
		sm, su := p.Source(true), p.Source(false)
		if sm == su {
			t.Fatalf("%s: mapped and unmapped sources identical", p)
		}
		if !strings.Contains(sm, ".equ U") || !strings.Contains(su, ".equ U") {
			t.Fatalf("%s: source missing the U symbol", p)
		}
	}
}

// TestAddressLayout pins the set-congruence the relations rely on:
// alias lines and the RelSet u share a's set in both levels, and the
// unmapped u shares neither.
func TestAddressLayout(t *testing.T) {
	l1set := func(a uint64) uint64 { return (a / 64) % 64 }
	l2set := func(a uint64) uint64 { return (a / 64) % 512 }
	line := func(a uint64) uint64 { return a / 64 }
	for k := uint64(1); k <= ConflictWays; k++ {
		al := BaseA + k*AliasStride
		if l1set(al) != l1set(BaseA) || l2set(al) != l2set(BaseA) {
			t.Fatalf("alias %d not congruent with a", k)
		}
		if line(al) == line(BaseA) {
			t.Fatalf("alias %d is a's own line", k)
		}
	}
	if l1set(MappedSetU) != l1set(BaseA) || l2set(MappedSetU) != l2set(BaseA) {
		t.Fatal("RelSet u not congruent with a")
	}
	if line(MappedSetU) == line(BaseA) {
		t.Fatal("RelSet u collides with a's line")
	}
	if l1set(UnmappedU) == l1set(BaseA) || l2set(UnmappedU) == l2set(BaseA) {
		t.Fatal("unmapped u congruent with a")
	}
}

// TestTrialDeterministic: a trial is a pure function of (pattern, arm,
// seed, noise).
func TestTrialDeterministic(t *testing.T) {
	p := Pattern{FAA, VU, AA, RelLine}
	a, err := p.Trial(true, 42, DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Trial(true, 42, DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same-seed trials differ: %d vs %d", a, b)
	}
}

// TestRunCaseJobsInvariance: the same case evaluates to the same
// result at every concurrency level.
func TestRunCaseJobsInvariance(t *testing.T) {
	ctx := context.Background()
	p := Pattern{AAL, VU, AAL, RelSet}
	seq, err := RunCase(ctx, p, Options{Runs: 12, Seed: 1, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCase(ctx, p, Options{Runs: 12, Seed: 1, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("jobs 1 vs 4 differ:\n%+v\n%+v", seq, par)
	}
}

// TestKnownAttacksVulnerable: every published attack leaks on this
// hierarchy at the paper's sample size, and the curated safe controls
// do not.
func TestKnownAttacksVulnerable(t *testing.T) {
	ctx := context.Background()
	for _, k := range KnownAttacks() {
		c, err := RunCase(ctx, k.Pattern, Options{Runs: 40, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !c.Vulnerable {
			t.Errorf("%s (%s): not vulnerable (welch p=%.4f, mw p=%.4f)", k.Name, k.Pattern, c.P, c.MWp)
		}
	}
	for _, safe := range []Pattern{
		{AA, VU, AA, RelSet},  // one congruent line cannot evict from 8 ways
		{FAA, VU, AA, RelSet}, // reload probes a, which u never touched
	} {
		c, err := RunCase(ctx, safe, Options{Runs: 40, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if c.Vulnerable {
			t.Errorf("control %s: unexpectedly vulnerable (welch p=%.4f, mw p=%.4f)", safe, c.P, c.MWp)
		}
	}
}

// TestRunMatrixMatchesStandalone: a matrix cell is byte-identical to
// the standalone case evaluation with the same options, at any Jobs.
func TestRunMatrixMatchesStandalone(t *testing.T) {
	ctx := context.Background()
	var pats []Pattern
	for _, s := range ShrunkPatterns() {
		p, err := ParsePattern(s)
		if err != nil {
			t.Fatal(err)
		}
		pats = append(pats, p)
	}
	m, err := RunMatrix(ctx, pats, Options{Runs: 8, Seed: 1, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Total != len(pats) || len(m.Cases) != len(pats) {
		t.Fatalf("matrix evaluated %d/%d cases", len(m.Cases), len(pats))
	}
	for i, p := range pats {
		solo, err := RunCase(ctx, p, Options{Runs: 8, Seed: 1, Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.Cases[i], solo) {
			t.Fatalf("%s: matrix cell differs from standalone case:\n%+v\n%+v", p, m.Cases[i], solo)
		}
	}
	m1, err := RunMatrix(ctx, pats, Options{Runs: 8, Seed: 1, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Cases, m1.Cases) {
		t.Fatal("matrix jobs 1 vs 4 differ")
	}
}

// interpTrial is the per-trial path Trial replaced, kept as its
// reference: the arm's program on the interpreter against a cold
// hierarchy, with a retire hook that charges each load its access
// latency and each flush FlushLatency (plus FlushCachedExtra when the
// line was cached), each plus a jitter draw from math/rand's own
// source.
func interpTrial(h *mem.Hierarchy, it *isa.Interp, prog *isa.Program, seed int64, noise cpu.Noise) (uint64, error) {
	h.Reset()
	rng := rand.New(rand.NewSource(seed))
	it.OnRetire = func(c isa.Commit) error {
		switch c.Op {
		case isa.LOAD:
			lat, served := h.Access(c.Addr, true)
			it.Cycle += lat + jitter(rng, noise, served == mem.LevelMem)
		case isa.FLUSH:
			lat := FlushLatency
			if h.Cached(c.Addr) {
				lat += FlushCachedExtra
			}
			h.Flush(c.Addr)
			it.Cycle += lat + jitter(rng, noise, false)
		}
		return nil
	}
	it.Reset(prog)
	if _, err := it.Run(prog); err != nil {
		return 0, err
	}
	return it.Mem[ResultAddr], nil
}

// TestTrialMatchesInterp checks the schedule's precondition: for every
// arm of the family, several seeds and jitter on both, either or
// neither access class, replaying the arm's schedule (Trial) returns
// exactly what interpreting the program again under that seed does.
func TestTrialMatchesInterp(t *testing.T) {
	h := newHierarchy()
	var it isa.Interp
	noises := []cpu.Noise{DefaultNoise(), {}, {MemJitter: 12}, {HitJitter: 2}}
	seeds := []int64{1, 2, 1 << 40, -7}
	for _, p := range Family() {
		for _, mapped := range []bool{false, true} {
			prog, err := p.Compile(mapped)
			if err != nil {
				t.Fatal(err)
			}
			for _, noise := range noises {
				for _, seed := range seeds {
					want, err := interpTrial(h, &it, prog, seed, noise)
					if err != nil {
						t.Fatal(err)
					}
					got, err := p.Trial(mapped, seed, noise)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s mapped=%v seed=%d noise=%+v: Trial %d, interpreter %d",
							p, mapped, seed, noise, got, want)
					}
				}
			}
		}
	}
}
