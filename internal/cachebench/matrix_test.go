package cachebench

import (
	"bytes"
	"context"
	"testing"

	"vpsec/internal/stats"
)

// TestRenderDeterministic: the renderers are pure functions of the
// result — two renderings of the same matrix are byte-identical, and
// every spelled value is finite.
func TestRenderDeterministic(t *testing.T) {
	var pats []Pattern
	for _, s := range ShrunkPatterns() {
		p, err := ParsePattern(s)
		if err != nil {
			t.Fatal(err)
		}
		pats = append(pats, p)
	}
	m, err := RunMatrix(context.Background(), pats, Options{Runs: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	RenderMatrix(&a, m)
	RenderMatrix(&b, m)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("matrix renders differ across calls")
	}
	var c, d bytes.Buffer
	RenderCase(&c, m.Cases[0])
	RenderCase(&d, m.Cases[0])
	if !bytes.Equal(c.Bytes(), d.Bytes()) {
		t.Fatal("case renders differ across calls")
	}
}

// TestRenderDegenerate: the zero-variance sentinel renders as a
// readable marker, not the float spelling of stats.TMax.
func TestRenderDegenerate(t *testing.T) {
	c := CaseResult{Pattern: "faa-vu-aa-line", Paper: "x", Runs: 2, CohenD: stats.TMax}
	c.T.Degenerate = "zero-variance"
	var b bytes.Buffer
	RenderCase(&b, c)
	out := b.String()
	if !bytes.Contains(b.Bytes(), []byte("degenerate: zero-variance")) {
		t.Fatalf("degenerate marker missing:\n%s", out)
	}
	if !bytes.Contains(b.Bytes(), []byte("+inf (zero variance)")) {
		t.Fatalf("effect-size sentinel missing:\n%s", out)
	}
}

// TestFullFamilyMatrix is the acceptance run: the entire 976-case
// family at the paper's sample size. Every published attack must be
// flagged, the matrix must be internally consistent, and the rendering
// deterministic.
func TestFullFamilyMatrix(t *testing.T) {
	m, err := RunMatrix(context.Background(), nil, Options{Runs: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Total != 976 || len(m.Cases) != 976 {
		t.Fatalf("family matrix evaluated %d cases, want 976", m.Total)
	}
	byName := map[string]CaseResult{}
	count := 0
	for _, c := range m.Cases {
		byName[c.Pattern] = c
		if c.Vulnerable {
			count++
		}
	}
	if count != m.Vulnerable {
		t.Fatalf("vulnerable tally %d != recount %d", m.Vulnerable, count)
	}
	for _, k := range KnownAttacks() {
		c, ok := byName[k.Pattern.String()]
		if !ok {
			t.Fatalf("%s missing from the family matrix", k.Pattern)
		}
		if !c.Vulnerable {
			t.Errorf("%s (%s): not vulnerable in the full matrix", k.Name, k.Pattern)
		}
	}
	t.Logf("full family: %d/%d vulnerable", m.Vulnerable, m.Total)
	var a, b bytes.Buffer
	RenderMatrix(&a, m)
	RenderMatrix(&b, m)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("full-family renders differ across calls")
	}
}
