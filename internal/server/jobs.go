package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"vpsec/internal/obs"
	"vpsec/internal/scenario"
)

// State is a job's lifecycle phase.
type State string

// Job states. A job moves queued → running → done|failed; a cache hit
// is born done.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Cache dispositions reported on a job.
const (
	// CacheHit marks a job answered from the content-addressed store
	// without executing.
	CacheHit = "hit"
	// CacheMiss marks a job that (is about to) run the simulator.
	CacheMiss = "miss"
)

// Job is one submitted experiment. The immutable identity fields are
// set at admission; the mutable state lives under mu and is read
// through View. Waiters block on done, which closes exactly once when
// the job reaches a terminal state.
//
// Only queued jobs (cache misses) are kept, in Server.jobs. A cache
// hit's Job is built per request from its hit template and dropped with
// the request, so it carries no spec and no channel of its own: the
// spec lives behind a pointer only a queued job sets, and hits share
// the pre-closed hitDone.
type Job struct {
	// ID is the server-assigned job identifier ("j-000001"), jobID of
	// the job number.
	ID string
	// Scenario is the registry name the job was submitted under, empty
	// for ad-hoc spec payloads.
	Scenario string
	// Kind is the kind of the canonicalized spec.
	Kind scenario.Kind
	// Hash is the canonical spec hash — the cache key and singleflight
	// identity.
	Hash string

	// num is the job number ID spells.
	num int
	// spec is the canonicalized spec a queued job executes; the worker
	// drops it once it starts, and hits never set it.
	spec *scenario.Spec
	// client is the admission-control key the job counts against.
	client string
	// progress accumulates trial counts from the job's tracer.
	progress progressSink
	// done closes when the job reaches done or failed.
	done chan struct{}

	mu     sync.Mutex
	state  State
	cache  string // CacheHit or CacheMiss, "" until resolved
	errmsg string
	result []byte // canonical result JSON (terminal states only)
}

// hitDone is the done channel of every cache-hit job: born closed.
var hitDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// jobID spells job number n as its id.
func jobID(n int) string {
	return fmt.Sprintf("j-%06d", n)
}

// newJob builds queued job number n.
func newJob(n int, name, client string, spec scenario.Spec, hash string) *Job {
	return &Job{
		ID:       jobID(n),
		Scenario: name,
		Kind:     spec.Kind,
		Hash:     hash,
		num:      n,
		spec:     &spec,
		client:   client,
		done:     make(chan struct{}),
		state:    StateQueued,
	}
}

// hitTemplate is what every cache hit of one (spec hash, submitted
// scenario name) pair has in common: its whole job view but the id.
type hitTemplate struct {
	scenario string
	kind     scenario.Kind
	hash     string
	result   []byte
}

// hitKey identifies a hit template.
type hitKey struct {
	hash, scenario string
}

// queuedSlot marks a job number in Server.slots that belongs to a
// queued job, not a cache hit.
const queuedSlot = ^uint32(0)

// newHitJob builds cache-hit job number n, born done, from its
// template.
func newHitJob(n int, t *hitTemplate) *Job {
	return &Job{
		ID:       jobID(n),
		Scenario: t.scenario,
		Kind:     t.kind,
		Hash:     t.hash,
		num:      n,
		done:     hitDone,
		state:    StateDone,
		cache:    CacheHit,
		result:   t.result,
	}
}

// Progress is a point-in-time view of a job's trial counts, derived
// from the internal/obs span stream: Total accumulates the item count
// of every runner map the job has started (a lower bound until the
// last map begins — a Table III job runs one map per cell), Done
// counts finished trials.
type Progress struct {
	// Done is the number of finished work items (trials).
	Done int `json:"done"`
	// Total is the summed size of every trial map started so far.
	Total int `json:"total"`
}

// progressSink implements obs.Sink over a job's private tracer: "map"
// begin events carry the item total, "trial" end events mark one
// finished work item. It is the server-side sibling of obs.Progress —
// a queryable snapshot instead of a rendered line.
type progressSink struct {
	mu sync.Mutex
	p  Progress
}

// Emit folds one trace event into the progress counters.
func (s *progressSink) Emit(e obs.Event) {
	var items int
	switch {
	case e.Name == "map" && e.Ph == obs.PhaseBegin:
		for _, a := range e.Attrs {
			if a.Key != "items" {
				continue
			}
			switch v := a.Val.(type) {
			case int:
				items = v
			case int64:
				items = int(v)
			case float64:
				items = int(v)
			}
		}
	case e.Name == "trial" && e.Ph == obs.PhaseEnd:
		items = 0
	default:
		return
	}
	s.mu.Lock()
	if e.Name == "map" {
		s.p.Total += items
	} else {
		s.p.Done++
	}
	s.mu.Unlock()
}

// Close satisfies obs.Sink; progress outlives the tracer.
func (s *progressSink) Close() error { return nil }

// snapshot returns the current counters.
func (s *progressSink) snapshot() Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p
}

// JobView is the JSON shape of a job in every API response (see
// docs/SERVER.md). Result holds the canonical result bytes verbatim —
// cached and freshly computed responses are byte-identical.
type JobView struct {
	// ID is the job identifier; poll it at /v1/jobs/{id}.
	ID string `json:"id"`
	// State is one of queued, running, done, failed.
	State State `json:"state"`
	// Scenario echoes the registry name the job was submitted under.
	Scenario string `json:"scenario,omitempty"`
	// Kind is the spec's scenario kind.
	Kind scenario.Kind `json:"kind"`
	// SpecSHA256 is the canonical spec hash — the cache key.
	SpecSHA256 string `json:"spec_sha256"`
	// Cache is "hit" or "miss" once resolved.
	Cache string `json:"cache,omitempty"`
	// Progress reports trial counts while running (and the final
	// counts afterwards); cache hits never have one.
	Progress *Progress `json:"progress,omitempty"`
	// Error carries the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Result is the canonical scenario.Result JSON of a done job. Only
	// the job endpoints carry it, written from a pre-rendered fragment
	// (writeJobView); View leaves it empty.
	Result json.RawMessage `json:"result,omitempty"`
}

// View snapshots the job for serialization, without the result: batch
// listings leave it out, and the job endpoints append it as a
// pre-rendered fragment (writeJobView).
func (j *Job) View() JobView {
	v, _ := j.snapshot()
	return v
}

// snapshot returns the job's view and its canonical result bytes (nil
// until done), read under one lock.
func (j *Job) snapshot() (JobView, []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:         j.ID,
		State:      j.state,
		Scenario:   j.Scenario,
		Kind:       j.Kind,
		SpecSHA256: j.Hash,
		Cache:      j.cache,
		Error:      j.errmsg,
	}
	if j.cache != CacheHit && j.state != StateQueued {
		p := j.progress.snapshot()
		v.Progress = &p
	}
	return v, j.result
}

// terminal reports whether the job finished (done or failed).
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateDone || j.state == StateFailed
}

// setRunning marks the job running.
func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.cache = CacheMiss
	j.mu.Unlock()
}

// complete terminates the job with its canonical result bytes.
func (j *Job) complete(result []byte) {
	j.mu.Lock()
	j.state = StateDone
	j.result = result
	j.mu.Unlock()
	close(j.done)
}

// fail terminates the job with an error.
func (j *Job) fail(err error) {
	j.mu.Lock()
	j.state = StateFailed
	j.errmsg = err.Error()
	j.mu.Unlock()
	close(j.done)
}

// runJob executes one cache-miss job on a worker: it attaches a
// private tracer feeding the job's progress counters, executes the
// canonical spec (per-trial fan-out inside scenario.Execute reuses
// internal/runner, bounded by Config.TrialJobs), canonicalizes the
// result bytes, and publishes them to the store before completing the
// job — a later duplicate submission hits the cache even after the
// singleflight entry is gone.
func (s *Server) runJob(ctx context.Context, j *Job) {
	j.setRunning()
	spec := *j.spec
	j.spec = nil
	spec.Jobs = s.cfg.TrialJobs
	tr := obs.New(&j.progress)
	spec.Trace = tr

	res, err := s.execute(ctx, spec)
	tr.Close()
	if err != nil {
		s.count(metricJobsFailed, helpJobsFailed)
		j.fail(err)
		return
	}
	data, err := res.CanonicalJSON()
	if err != nil {
		s.count(metricJobsFailed, helpJobsFailed)
		j.fail(err)
		return
	}
	if err := s.store.Put(j.Hash, data); err != nil {
		// A write-through failure degrades the cache, not the job.
		s.count(metricCacheErrors, helpCacheErrors)
	}
	s.count(metricJobsCompleted, helpJobsCompleted)
	s.mu.Lock()
	s.reg.Gauge(metricCacheEntries, helpCacheEntries).Set(float64(s.store.Len()))
	s.mu.Unlock()
	j.complete(data)
}

// Batch groups the jobs of one POST /v1/batch submission.
type Batch struct {
	// ID is the server-assigned batch identifier ("b-0001").
	ID string
	// Jobs lists the member job numbers in submission order. Duplicate
	// specs within a batch share one job (singleflight applies inside a
	// batch too).
	Jobs []int
}

// BatchView is the JSON shape of a batch (see docs/SERVER.md).
type BatchView struct {
	// ID is the batch identifier; poll it at /v1/batch/{id}.
	ID string `json:"id"`
	// Total is the number of member jobs.
	Total int `json:"total"`
	// Done and Failed count terminal member jobs; the batch is
	// finished when Done+Failed == Total.
	Done int `json:"done"`
	// Failed counts member jobs that ended in failure.
	Failed int `json:"failed"`
	// Jobs holds the member job views, without inlined results —
	// fetch each at /v1/jobs/{id} (results can be large).
	Jobs []JobView `json:"jobs"`
}

// batchView snapshots batch b for serialization.
func (s *Server) batchView(b *Batch) BatchView {
	jobs := make([]*Job, len(b.Jobs))
	s.mu.Lock()
	for i, n := range b.Jobs {
		jobs[i] = s.jobLocked(n)
	}
	s.mu.Unlock()
	v := BatchView{ID: b.ID, Total: len(jobs)}
	for _, j := range jobs {
		jv := j.View()
		switch jv.State {
		case StateDone:
			v.Done++
		case StateFailed:
			v.Failed++
		}
		v.Jobs = append(v.Jobs, jv)
	}
	return v
}
