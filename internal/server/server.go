// Package server is the experiment-serving layer: a long-running
// HTTP/JSON front-end that accepts scenario.Spec payloads (or registry
// names), validates and canonicalizes them, executes them on a bounded
// worker pool, and memoizes every result in a content-addressed store
// keyed by the canonical spec hash (scenario.Spec.Hash). Execution is
// deterministic by construction — the runner's contract makes results
// byte-identical at every concurrency level — so a repeated request
// for any of the registry's scenarios costs one store lookup plus a
// copy of the result's pre-rendered bytes, and a cold cell costs
// exactly the simulator's raw speed.
//
// The HTTP surface (documented endpoint by endpoint in docs/SERVER.md,
// which `make docs` checks against the route table below):
//
//	POST /v1/jobs          submit one spec or registry name, sync or async
//	GET  /v1/jobs/{id}     poll state, progress, and the result
//	GET  /v1/jobs/{id}/result  fetch the bare canonical result JSON
//	POST /v1/batch         fan a spec list across the worker pool
//	GET  /v1/batch/{id}    aggregated batch progress
//	GET  /v1/scenarios     registry listing
//	GET  /v1/scenarios/{name}  one registered spec, canonical hash included
//	GET  /metrics          Prometheus exposition (internal/metrics)
//	GET  /healthz          liveness and drain state
//
// Duplicate submissions of a spec that is already queued or running
// attach to the in-flight job (singleflight): the spec executes once
// and every caller polls the same job. Admission control bounds the
// queue depth and each client's in-flight jobs; Shutdown drains
// running jobs before returning. See DESIGN.md §13 for the
// architecture.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"vpsec/internal/metrics"
	"vpsec/internal/scenario"
)

// Server metric names and help strings, registered in the server's own
// metrics.Registry and exported at /metrics.
const (
	metricJobsSubmitted = "server.jobs.submitted"
	helpJobsSubmitted   = "jobs admitted (cache hits and deduplicated submissions included)"
	metricJobsCompleted = "server.jobs.completed"
	helpJobsCompleted   = "jobs that executed to completion"
	metricJobsFailed    = "server.jobs.failed"
	helpJobsFailed      = "jobs that ended in an execution error"
	metricJobsDeduped   = "server.jobs.deduped"
	helpJobsDeduped     = "submissions attached to an already in-flight job (singleflight)"
	metricCacheHits     = "server.cache.hits"
	helpCacheHits       = "submissions served from the content-addressed result cache"
	metricCacheMisses   = "server.cache.misses"
	helpCacheMisses     = "submissions that had to execute"
	metricCacheErrors   = "server.cache.errors"
	helpCacheErrors     = "result-store write failures (job still served)"
	metricCacheEntries  = "server.cache.entries"
	helpCacheEntries    = "entries in the content-addressed result store"
	metricRejectedQueue = "server.rejected.queue_full"
	helpRejectedQueue   = "submissions rejected because the job queue was full"
	metricRejectedLimit = "server.rejected.client_limit"
	helpRejectedLimit   = "submissions rejected by the per-client in-flight cap"
	metricQueueDepth    = "server.queue.depth"
	helpQueueDepth      = "jobs queued and not yet running"
	metricJobsRunning   = "server.jobs.running"
	helpJobsRunning     = "jobs currently executing"
	metricBatches       = "server.batches.submitted"
	helpBatches         = "batch submissions"
)

// Config parameterizes New. The zero value serves with all-core
// workers, an in-memory cache, and the documented default limits.
type Config struct {
	// Workers bounds concurrently executing jobs; 0 means
	// runtime.NumCPU().
	Workers int
	// TrialJobs is the per-job trial concurrency handed to
	// scenario.Spec.Jobs (0 means all cores — appropriate when Workers
	// is small, oversubscribing when both are large). Results are
	// byte-identical at every value.
	TrialJobs int
	// QueueDepth bounds jobs admitted but not yet running; 0 means 256.
	// Submissions beyond it are rejected with 503 queue_full.
	QueueDepth int
	// ClientInFlight bounds one client's queued+running jobs; 0 means
	// 64. Submissions beyond it are rejected with 429 client_limit. A
	// client is the X-Client-ID header, else the remote address host.
	ClientInFlight int
	// MaxWait caps the synchronous wait of wait=true submissions and
	// of GET polls with wait=true; 0 means 60s. Longer client
	// timeout_ms values are clamped to it.
	MaxWait time.Duration
	// Store is the result cache; nil means a fresh MemStore.
	Store Store
	// Metrics receives the server's operational counters and gauges
	// and backs GET /metrics; nil means a fresh registry.
	Metrics *metrics.Registry
}

// Server is the experiment service. Construct with New, serve it as an
// http.Handler, and Shutdown to drain.
type Server struct {
	cfg   Config
	reg   *metrics.Registry
	store Store
	views viewMemo // job-view fragments of the store's results
	mux   *http.ServeMux

	// execute runs a job's spec: scenario.Execute, or a gated stand-in
	// in tests that must hold a worker busy without a wall-clock guess.
	execute func(context.Context, scenario.Spec) (*scenario.Result, error)

	baseCtx context.Context
	cancel  context.CancelFunc

	mu   sync.Mutex
	jobs map[string]*Job // id → queued job (cache misses only)
	// slots holds job number n's entry at n-1: queuedSlot for a job in
	// jobs, else the index of the cache hit's template in hits. A hit
	// thus retains 4 pointer-free bytes, not a job record.
	slots    []uint32
	hits     []hitTemplate
	hitIndex map[hitKey]uint32 // hit template → its index in hits
	inflight map[string]*Job   // hash → queued/running job (singleflight)
	batches  map[string]*Batch
	clients  map[string]int // client key → queued+running jobs
	queued   int
	running  int
	nextBat  int
	draining bool

	queue chan *Job
	wg    sync.WaitGroup
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	return newServer(cfg, scenario.Execute)
}

// newServer is New with the function jobs execute through.
func newServer(cfg Config, execute func(context.Context, scenario.Spec) (*scenario.Result, error)) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.ClientInFlight <= 0 {
		cfg.ClientInFlight = 64
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 60 * time.Second
	}
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Metrics,
		store:    cfg.Store,
		views:    viewMemo{m: make(map[string][]byte)},
		execute:  execute,
		baseCtx:  ctx,
		cancel:   cancel,
		jobs:     make(map[string]*Job),
		hitIndex: make(map[hitKey]uint32),
		inflight: make(map[string]*Job),
		batches:  make(map[string]*Batch),
		clients:  make(map[string]int),
		queue:    make(chan *Job, cfg.QueueDepth),
	}
	s.routes()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// routes registers the HTTP surface. The pattern literals here are the
// route table `make docs` (tools/doccheck -api) checks docs/SERVER.md
// against: every route must appear in the API reference.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/batch/{id}", s.handleBatchStatus)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("GET /v1/scenarios/{name}", s.handleScenario)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// ServeHTTP dispatches to the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// worker executes queued jobs until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		s.queued--
		s.running++
		s.gaugesLocked()
		s.mu.Unlock()

		s.runJob(s.baseCtx, j)

		s.mu.Lock()
		s.running--
		delete(s.inflight, j.Hash)
		s.clients[j.client]--
		if s.clients[j.client] <= 0 {
			delete(s.clients, j.client)
		}
		s.gaugesLocked()
		s.mu.Unlock()
	}
}

// count bumps a server counter under mu — metrics.Counter itself is
// not synchronized, and workers report outside the submission path.
func (s *Server) count(name, help string) {
	s.mu.Lock()
	s.reg.Counter(name, help).Add(1)
	s.mu.Unlock()
}

// gaugesLocked refreshes the queue/running gauges; callers hold mu.
func (s *Server) gaugesLocked() {
	s.reg.Gauge(metricQueueDepth, helpQueueDepth).Set(float64(s.queued))
	s.reg.Gauge(metricJobsRunning, helpJobsRunning).Set(float64(s.running))
}

// Shutdown drains the server: new submissions are rejected, queued and
// running jobs finish, then the workers exit. If ctx expires first the
// base context is cancelled — running jobs abort through the runner's
// cancellation path — and Shutdown returns ctx's error after the pool
// unwinds.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.draining = true
	s.mu.Unlock()
	close(s.queue)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// apiError is the JSON error envelope: {"error": {"code", "message"}}.
type apiError struct {
	// Code is a stable machine-readable identifier (docs/SERVER.md
	// lists them all); Message is human-readable detail.
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeError emits the error envelope with the given HTTP status.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]apiError{
		"error": {Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// writeJSON emits v as indented JSON (the canonical response form the
// docs capture).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// clientKey identifies the submitting client for admission control:
// the X-Client-ID header when present, else the remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// submitRequest is the POST /v1/jobs payload: exactly one of Scenario
// (a registry name) or Spec (an inline scenario.Spec object) selects
// the experiment; Wait and TimeoutMS control synchronous waiting.
type submitRequest struct {
	// Scenario names a registered scenario (GET /v1/scenarios lists
	// them).
	Scenario string `json:"scenario,omitempty"`
	// Spec is an inline spec payload, parsed strictly (unknown fields
	// are rejected) and validated like a -scenario file.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Wait blocks the request until the job finishes (or the wait
	// budget expires, returning 202 with the job still in flight).
	Wait bool `json:"wait,omitempty"`
	// TimeoutMS bounds Wait in milliseconds; 0 means — and values are
	// clamped to — the server's MaxWait.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// resolveSubmit maps one submit entry to its canonical spec. Sim
// specs are refused: they name a .vasm file on the server's
// filesystem, and a network payload must not choose what the server
// reads — run those through cmd/vpsim.
func resolveSubmit(req submitRequest) (name string, spec scenario.Spec, errCode string, err error) {
	switch {
	case req.Scenario != "" && req.Spec != nil:
		return "", scenario.Spec{}, "bad_request", errors.New("request sets both scenario and spec")
	case req.Scenario != "":
		s, ok := scenario.Lookup(req.Scenario)
		if !ok {
			return "", scenario.Spec{}, "unknown_scenario",
				fmt.Errorf("unknown scenario %q (GET /v1/scenarios lists the registry)", req.Scenario)
		}
		return req.Scenario, s.Canonical(), "", nil
	case req.Spec != nil:
		s, err := scenario.Parse(req.Spec)
		if err != nil {
			return "", scenario.Spec{}, "invalid_spec", err
		}
		if s.Kind == scenario.KindSim {
			return "", scenario.Spec{}, "invalid_spec",
				errors.New("sim specs read server-local .vasm files and are not served; use cmd/vpsim")
		}
		return s.Name, s.Canonical(), "", nil
	}
	return "", scenario.Spec{}, "bad_request", errors.New("request needs a scenario name or a spec")
}

// errSubmit carries an admission failure out of submit.
type errSubmit struct {
	status int
	code   string
	msg    string
}

// Error renders the admission failure.
func (e *errSubmit) Error() string { return e.msg }

// submit admits one canonical spec: cache hit → a terminal job built
// from its hit template for this request alone (only its slot stays),
// singleflight hit → the in-flight job, otherwise a fresh job is
// queued against the admission limits. Callers hold no locks.
func (s *Server) submit(name, client string, spec scenario.Spec) (*Job, error) {
	hash := spec.Hash()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, &errSubmit{http.StatusServiceUnavailable, "shutting_down", "server is draining"}
	}
	s.reg.Counter(metricJobsSubmitted, helpJobsSubmitted).Add(1)

	// Hot cell: answer from the content-addressed store.
	if data, ok := s.store.Get(hash); ok {
		s.reg.Counter(metricCacheHits, helpCacheHits).Add(1)
		k := hitKey{hash, name}
		t, ok := s.hitIndex[k]
		if !ok {
			t = uint32(len(s.hits))
			s.hits = append(s.hits, hitTemplate{scenario: name, kind: spec.Kind, hash: hash, result: data})
			s.hitIndex[k] = t
		}
		s.slots = append(s.slots, t)
		return newHitJob(len(s.slots), &s.hits[t]), nil
	}

	// Singleflight: attach to the identical in-flight job.
	if j, ok := s.inflight[hash]; ok {
		s.reg.Counter(metricJobsDeduped, helpJobsDeduped).Add(1)
		return j, nil
	}

	// Admission control for a cold cell.
	if s.queued >= s.cfg.QueueDepth {
		s.reg.Counter(metricRejectedQueue, helpRejectedQueue).Add(1)
		return nil, &errSubmit{http.StatusServiceUnavailable, "queue_full",
			fmt.Sprintf("job queue is full (%d queued)", s.queued)}
	}
	if s.clients[client] >= s.cfg.ClientInFlight {
		s.reg.Counter(metricRejectedLimit, helpRejectedLimit).Add(1)
		return nil, &errSubmit{http.StatusTooManyRequests, "client_limit",
			fmt.Sprintf("client %q has %d jobs in flight (limit %d)", client, s.clients[client], s.cfg.ClientInFlight)}
	}

	s.reg.Counter(metricCacheMisses, helpCacheMisses).Add(1)
	s.slots = append(s.slots, queuedSlot)
	j := newJob(len(s.slots), name, client, spec, hash)
	s.jobs[j.ID] = j
	s.inflight[hash] = j
	s.clients[client]++
	s.queued++
	s.gaugesLocked()
	s.queue <- j // capacity == QueueDepth, so this never blocks
	return j, nil
}

// lookup resolves a job id: a queued job straight from the jobs map,
// else a cache hit rebuilt from its template. A hit's id resolves only
// in its canonical spelling (jobID), so "j-1" and "j-0000001" name no
// job. It returns nil for an unknown id.
func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j
	}
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j-"))
	if err != nil || n < 1 || n > len(s.slots) || jobID(n) != id {
		return nil
	}
	return s.jobLocked(n)
}

// jobLocked returns job number n, 1 ≤ n ≤ len(s.slots); callers hold
// mu.
func (s *Server) jobLocked(n int) *Job {
	if t := s.slots[n-1]; t != queuedSlot {
		return newHitJob(n, &s.hits[t])
	}
	return s.jobs[jobID(n)]
}

// waitBudget resolves a request's synchronous wait duration.
func (s *Server) waitBudget(timeoutMS int) time.Duration {
	d := s.cfg.MaxWait
	if timeoutMS > 0 {
		if t := time.Duration(timeoutMS) * time.Millisecond; t < d {
			d = t
		}
	}
	return d
}

// awaitDone blocks until done closes or d elapses and reports whether
// done closed. A closed done returns at once, without arming a timer;
// otherwise the timer is stopped on return, so no request leaves one
// pending until the wait budget would have expired.
func awaitDone(done <-chan struct{}, d time.Duration) bool {
	select {
	case <-done:
		return true
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// maxSpecBytes bounds the body of POST /v1/jobs, and QueueDepth times
// it the body of POST /v1/batch: the largest registry spec marshals to
// under 500 bytes, so one submission gets two orders of magnitude of
// room for hand-written spellings and a batch that much per job the
// queue can admit.
const maxSpecBytes = 64 << 10

// decodeBody decodes a request body holding one JSON object and
// nothing after it but whitespace into v, strictly (unknown fields are
// rejected), reading at most limit bytes. On failure it answers — 413
// too_large past the limit, 400 bad_request otherwise — and returns
// false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		} else if err == nil {
			err = errors.New("more than one JSON value in the body")
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large", "request body exceeds %d bytes", tooLarge.Limit)
		return false
	}
	writeError(w, http.StatusBadRequest, "bad_request", "decode request: %v", err)
	return false
}

// handleSubmit implements POST /v1/jobs: resolve, admit, and answer —
// 200 for terminal jobs (cache hits, or wait=true runs that finish in
// budget), 202 for jobs still in flight.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !decodeBody(w, r, maxSpecBytes, &req) {
		return
	}
	name, spec, code, err := resolveSubmit(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, code, "%v", err)
		return
	}
	j, err := s.submit(name, clientKey(r), spec)
	if err != nil {
		var rej *errSubmit
		if errors.As(err, &rej) {
			writeError(w, rej.status, rej.code, "%s", rej.msg)
			return
		}
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	if req.Wait {
		awaitDone(j.done, s.waitBudget(req.TimeoutMS))
	}
	status := http.StatusAccepted
	if j.terminal() {
		status = http.StatusOK
	}
	s.writeJobView(w, status, j)
}

// handleJob implements GET /v1/jobs/{id}. With ?wait=true it blocks —
// long-polls — until the job is terminal or the wait budget expires.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("wait") == "true" {
		ms, _ := strconv.Atoi(r.URL.Query().Get("timeout_ms"))
		awaitDone(j.done, s.waitBudget(ms))
	}
	s.writeJobView(w, http.StatusOK, j)
}

// handleJobResult implements GET /v1/jobs/{id}/result: the bare
// canonical result bytes, straight from the store's representation —
// what a cache-to-cold byte comparison should fetch.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	state, result, errmsg := j.state, j.result, j.errmsg
	j.mu.Unlock()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
	case StateFailed:
		writeError(w, http.StatusConflict, "job_failed", "%s", errmsg)
	default:
		writeError(w, http.StatusConflict, "not_done", "job %s is %s", j.ID, state)
	}
}

// batchRequest is the POST /v1/batch payload: registry names and/or
// inline specs, fanned across the worker pool as individual jobs.
type batchRequest struct {
	// Scenarios lists registry names to submit.
	Scenarios []string `json:"scenarios,omitempty"`
	// Specs lists inline spec payloads to submit.
	Specs []json.RawMessage `json:"specs,omitempty"`
	// Wait blocks until every member job finishes or the wait budget
	// expires.
	Wait bool `json:"wait,omitempty"`
	// TimeoutMS bounds Wait in milliseconds, clamped to the server's
	// MaxWait.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// handleBatch implements POST /v1/batch. Admission is all-or-nothing:
// the whole list must fit the queue and the client budget, so a batch
// never half-starts.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeBody(w, r, int64(s.cfg.QueueDepth)*maxSpecBytes, &req) {
		return
	}
	n := len(req.Scenarios) + len(req.Specs)
	if n == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "batch needs scenarios or specs")
		return
	}
	if n > s.cfg.QueueDepth {
		writeError(w, http.StatusServiceUnavailable, "queue_full",
			"batch of %d exceeds the queue capacity %d", n, s.cfg.QueueDepth)
		return
	}

	// Resolve every entry before admitting any.
	entries := make([]submitRequest, 0, n)
	for _, name := range req.Scenarios {
		entries = append(entries, submitRequest{Scenario: name})
	}
	for _, raw := range req.Specs {
		entries = append(entries, submitRequest{Spec: raw})
	}
	names := make([]string, n)
	specs := make([]scenario.Spec, n)
	for i, e := range entries {
		name, spec, code, err := resolveSubmit(e)
		if err != nil {
			writeError(w, http.StatusBadRequest, code, "batch entry %d: %v", i, err)
			return
		}
		names[i], specs[i] = name, spec
	}

	client := clientKey(r)
	b := &Batch{}
	jobs := make([]*Job, 0, n)
	for i := range specs {
		j, err := s.submit(names[i], client, specs[i])
		if err != nil {
			// Jobs admitted before the failure keep running; the client
			// is told nothing was recorded as a batch.
			var rej *errSubmit
			if errors.As(err, &rej) {
				writeError(w, rej.status, rej.code, "batch entry %d: %s", i, rej.msg)
				return
			}
			writeError(w, http.StatusInternalServerError, "internal", "batch entry %d: %v", i, err)
			return
		}
		jobs = append(jobs, j)
		b.Jobs = append(b.Jobs, j.num)
	}

	s.mu.Lock()
	s.nextBat++
	b.ID = fmt.Sprintf("b-%04d", s.nextBat)
	s.batches[b.ID] = b
	s.reg.Counter(metricBatches, helpBatches).Add(1)
	s.mu.Unlock()

	if req.Wait {
		deadline := time.Now().Add(s.waitBudget(req.TimeoutMS))
		for _, j := range jobs {
			if !awaitDone(j.done, time.Until(deadline)) {
				break
			}
		}
	}
	v := s.batchView(b)
	status := http.StatusAccepted
	if v.Done+v.Failed == v.Total {
		status = http.StatusOK
	}
	writeJSON(w, status, v)
}

// handleBatchStatus implements GET /v1/batch/{id}.
func (s *Server) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	b, ok := s.batches[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no batch %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.batchView(b))
}

// scenarioEntry is one GET /v1/scenarios listing row.
type scenarioEntry struct {
	// Name is the registry key, submittable as {"scenario": name}.
	Name string `json:"name"`
	// Title is the human one-liner from the registry.
	Title string `json:"title"`
	// Kind is the scenario kind.
	Kind scenario.Kind `json:"kind"`
	// SpecSHA256 is the canonical spec hash — compare against job
	// spec_sha256 fields and cache keys.
	SpecSHA256 string `json:"spec_sha256"`
}

// handleScenarios implements GET /v1/scenarios: the registry in sorted
// order.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	entries := []scenarioEntry{}
	for _, sp := range scenario.All() {
		entries = append(entries, scenarioEntry{
			Name: sp.Name, Title: sp.Title, Kind: sp.Kind, SpecSHA256: sp.Hash(),
		})
	}
	writeJSON(w, http.StatusOK, entries)
}

// scenarioDetail is the GET /v1/scenarios/{name} response.
type scenarioDetail struct {
	// Name and Title identify the registry entry.
	Name string `json:"name"`
	// Title is the human one-liner.
	Title string `json:"title"`
	// SpecSHA256 is the canonical spec hash.
	SpecSHA256 string `json:"spec_sha256"`
	// Spec is the registered spec, as -describe prints it.
	Spec scenario.Spec `json:"spec"`
}

// handleScenario implements GET /v1/scenarios/{name}.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sp, ok := scenario.Lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_scenario", "no scenario %q", name)
		return
	}
	writeJSON(w, http.StatusOK, scenarioDetail{
		Name: sp.Name, Title: sp.Title, SpecSHA256: sp.Hash(), Spec: sp,
	})
}

// handleMetrics implements GET /metrics: the server registry in the
// Prometheus text exposition format (internal/metrics).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// mu also orders the exposition against worker-side counter writes.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg.WritePrometheus(w)
}

// healthView is the GET /healthz response body.
type healthView struct {
	// Status is "ok" while serving, "draining" during shutdown.
	Status string `json:"status"`
	// Queued and Running report the pool state.
	Queued int `json:"queued"`
	// Running reports executing jobs.
	Running int `json:"running"`
	// CacheEntries reports the result-store size.
	CacheEntries int `json:"cache_entries"`
}

// handleHealthz implements GET /healthz: 200 while accepting work,
// 503 once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	v := healthView{Status: "ok", Queued: s.queued, Running: s.running, CacheEntries: s.store.Len()}
	draining := s.draining
	s.mu.Unlock()
	status := http.StatusOK
	if draining {
		v.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, v)
}
