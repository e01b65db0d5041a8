package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCacheMatrixGolden is the acceptance gate for the cachebench
// family headline: `vpreport -scenario cachebench-matrix` must emit a
// deterministic vulnerability matrix, byte-identical across -jobs
// values and pinned in a golden file so a drift in the taxonomy, the
// hierarchy model, or the statistics shows up as a reviewable diff.
func TestCacheMatrixGolden(t *testing.T) {
	s, ok := Lookup("cachebench-matrix")
	if !ok {
		t.Fatal("cachebench-matrix not registered")
	}

	render := func(jobs int) []byte {
		spec := s
		spec.Jobs = jobs
		res, err := Execute(context.Background(), spec)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var b bytes.Buffer
		if err := res.Render(&b, RenderOptions{}); err != nil {
			t.Fatalf("jobs=%d render: %v", jobs, err)
		}
		return b.Bytes()
	}

	seq := render(1)
	par := render(4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("cachebench-matrix render differs between -jobs 1 and -jobs 4:\n--- jobs 1 ---\n%s\n--- jobs 4 ---\n%s", seq, par)
	}

	golden := filepath.Join("testdata", "cachebench-matrix.golden")
	if *update {
		if err := os.WriteFile(golden, seq, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/scenario -update` to regenerate)", err)
	}
	if !bytes.Equal(want, seq) {
		t.Fatalf("cachebench-matrix drifted from %s (run `go test ./internal/scenario -update` and review the diff):\n%s", golden, seq)
	}
}

// TestCacheMatrixFullDigest pins the whole 976-case family byte for
// byte: cachebench-matrix-full at Jobs 1 and 4 must both hash (SHA-256
// of CanonicalJSON) to the cachebench-full digest in
// tools/bench/pinned.json, with 170 cases vulnerable. The curated
// golden above covers 16 cases; this is the gate for the other 960.
func TestCacheMatrixFullDigest(t *testing.T) {
	const (
		wantDigest     = "b103980f1a9a808156fbdbcdb8f7cfc59ede88a95624ba66f6a9ea7747c53338"
		wantVulnerable = 170
	)
	s, ok := Lookup("cachebench-matrix-full")
	if !ok {
		t.Fatal("cachebench-matrix-full not registered")
	}
	for _, jobs := range []int{1, 4} {
		spec := s
		spec.Jobs = jobs
		res, err := Execute(context.Background(), spec)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		data, err := res.CanonicalJSON()
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != wantDigest {
			t.Errorf("jobs=%d: digest %s, want %s", jobs, got, wantDigest)
		}
		if m := res.CacheBench; m.Total != 976 || m.Vulnerable != wantVulnerable {
			t.Errorf("jobs=%d: %d/%d vulnerable, want %d/976", jobs, m.Vulnerable, m.Total, wantVulnerable)
		}
	}
}

// TestRegistrySweepDigest pins the attack side of the registry byte for
// byte: every spec that is not a cachebench entry, executed in registry
// order at its own seed and Jobs 4, must hash (SHA-256 over the
// concatenated CanonicalJSON) to the registry-sweep digest pinned in
// tools/bench/pinned.json. The test reads the pin; it never rewrites
// it.
func TestRegistrySweepDigest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "tools", "bench", "pinned.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]struct {
		Seed0 struct {
			Digest string `json:"digest"`
		} `json:"seed0"`
	}
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	want := pins["registry-sweep"].Seed0.Digest
	if len(want) != 64 {
		t.Fatalf("registry-sweep seed0 digest %q in pinned.json", want)
	}
	d := sha256.New()
	n := 0
	for _, s := range All() {
		if s.Kind == KindCacheBench || s.Kind == KindCacheMatrix {
			continue
		}
		n++
		s.Jobs = 4
		res, err := Execute(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		data, err := res.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		d.Write(data)
	}
	if n != 68 {
		t.Errorf("%d attack-side specs, want 68", n)
	}
	if got := hex.EncodeToString(d.Sum(nil)); got != want {
		t.Errorf("registry sweep digest %s, want %s", got, want)
	}
}

// TestCacheMatrixHashJobsInvariant: Jobs is infrastructure, not part
// of the experiment identity — the server cache must hit the same
// entry regardless of the client's concurrency.
func TestCacheMatrixHashJobsInvariant(t *testing.T) {
	s, ok := Lookup("cachebench-matrix")
	if !ok {
		t.Fatal("cachebench-matrix not registered")
	}
	base := s.Hash()
	if base == "" {
		t.Fatal("empty hash")
	}
	withJobs := s
	withJobs.Jobs = 4
	if withJobs.Hash() != base {
		t.Fatal("Jobs changed the spec hash")
	}
}
