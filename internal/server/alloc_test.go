//go:build !race

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"vpsec/internal/scenario"
)

// discardWriter is an http.ResponseWriter that keeps only the status
// and the body length.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header    { return w.header }
func (w *discardWriter) WriteHeader(status int) { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestHitAllocBudget: a by-name cache hit on a ~200 KB stored result
// allocates under 32 KB per request — the result is copied from its
// memoized job-view fragment, not re-encoded per request. Runs without
// -race (make alloc-budget): the race detector instruments allocations.
func TestHitAllocBudget(t *testing.T) {
	const (
		hits   = 200
		budget = 32 << 10
	)
	spec, ok := scenario.Lookup("train-test-timing-lvp")
	if !ok {
		t.Fatal("train-test-timing-lvp is not registered")
	}
	times := make([]int, 16384)
	for i := range times {
		times[i] = 100000 + i*7919%50000
	}
	result, err := json.MarshalIndent(map[string]any{"Spec": spec.Canonical(), "Times": times}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	if err := store.Put(spec.Hash(), result); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Store: store})
	defer s.Shutdown(context.Background())

	body := []byte(`{"scenario":"train-test-timing-lvp","wait":true}`)
	reqs := make([]*http.Request, hits+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	}
	w := &discardWriter{header: http.Header{}}
	s.ServeHTTP(w, reqs[0]) // the first view renders the fragment
	if w.status != http.StatusOK || w.n < len(result) {
		t.Fatalf("warm-up hit: status %d, %d bytes for a %d-byte result", w.status, w.n, len(result))
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, r := range reqs[1:] {
		s.ServeHTTP(w, r)
	}
	runtime.ReadMemStats(&after)
	if w.status != http.StatusOK || w.n < (hits+1)*len(result) {
		t.Fatalf("hits: status %d, %d bytes in all", w.status, w.n)
	}
	per := (after.TotalAlloc - before.TotalAlloc) / hits
	t.Logf("a %d-byte cache hit allocates %d B per request", len(result), per)
	if per >= budget {
		t.Errorf("a %d-byte cache hit allocates %d B per request, budget %d B", len(result), per, budget)
	}
}
