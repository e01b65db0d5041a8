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

// hitBody submits train-test-timing-lvp by name and waits for it.
var hitBody = []byte(`{"scenario":"train-test-timing-lvp","wait":true}`)

// newHitServer starts a one-worker server whose store holds a ~200 KB
// result for train-test-timing-lvp, so every hitBody submission is a
// cache hit, and returns it with the result.
func newHitServer(t *testing.T) (*Server, []byte) {
	t.Helper()
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
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s, result
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
	s, result := newHitServer(t)
	reqs := make([]*http.Request, hits+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(hitBody))
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

// TestHitRetention: a cache hit retains under 16 B of heap for the
// server's lifetime — its 4-byte job-number slot, not a job record, an
// id string, a hash string and a map entry. Measured as the live heap
// after a GC, across 20,000 by-name hits. Runs without -race (make
// alloc-budget): the race detector instruments allocations.
func TestHitRetention(t *testing.T) {
	const (
		hits   = 20000
		budget = 16
	)
	s, _ := newHitServer(t)
	w := &discardWriter{header: http.Header{}}
	hit := func() {
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(hitBody)))
		if w.status != http.StatusOK {
			t.Fatalf("hit: status %d", w.status)
		}
	}
	hit() // the first hit adds the template and renders the fragment

	before := liveHeap()
	for i := 0; i < hits; i++ {
		hit()
	}
	per := (liveHeap() - before) / hits
	t.Logf("a cache hit retains %d B", per)
	if per >= budget {
		t.Errorf("a cache hit retains %d B, budget %d B", per, budget)
	}
}

// liveHeap returns the bytes of live heap. It collects twice: the first
// collection moves sync.Pool contents, such as the encoder buffer that
// rendered a result fragment, to the pools' victim caches, and the
// second frees them.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
