package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"vpsec/internal/metrics"
	"vpsec/internal/obs"
	"vpsec/internal/scenario"
	"vpsec/internal/server"
)

// hotClients is the number of closed-loop clients in a hot pass: one
// per core of the benchmark machine, each sending its next request only
// after the previous response arrived.
const hotClients = 2

// vpserver is the vpserver-mixed workload: an in-process server
// (2 workers, 1 trial job each, in-memory store) behind an httptest
// loopback listener. The first pass on a fresh server is the cold
// phase: one POST /v1/batch of the sweep scenarios by registry name,
// waiting for completion, then GET /v1/jobs/{id}/result for each; its
// digest covers the result bytes in registry order, so it equals the
// registry-sweep digest at seed offset 0 when the server's output
// equals direct execution. Every later pass is a hot phase: hotClients
// closed-loop clients send wait=true POST /v1/jobs requests, 80% by
// registry name and 20% as inline specs in a key-reordered spelling,
// all of which must be cache hits.
//
// The scenarios are always the registry's own, so the cold phase is the
// same work at every seed; the seed offset selects the hot request
// sequence.
type vpserver struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	reg    *metrics.Registry

	names []string
	cold  []byte // the batch request body

	hot     [][]byte // hot request bodies, in send order
	hotHash []string // the spec hash each hot request must resolve to
	warm    bool     // the cold phase has run
}

// keyReordered renders a spec as JSON with its keys in reverse
// alphabetical order — the same experiment spelled differently from the
// registry's marshaled form, to exercise Parse and Canonical.
func keyReordered(s scenario.Spec) ([]byte, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	var b bytes.Buffer
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", k, fields[k])
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// hotMix builds n hot request bodies for the given registry scenarios:
// each request picks a scenario uniformly and is sent by name with
// probability 0.8, else inline in the key-reordered spelling. It
// returns the bodies and the spec hash each must resolve to.
func hotMix(specs []scenario.Spec, n int, seed int64) ([][]byte, []string, error) {
	byName := make([][]byte, len(specs))
	inline := make([][]byte, len(specs))
	hashes := make([]string, len(specs))
	for i, s := range specs {
		byName[i] = []byte(fmt.Sprintf(`{"scenario":%q,"wait":true}`, s.Name))
		spec, err := keyReordered(s)
		if err != nil {
			return nil, nil, err
		}
		inline[i] = []byte(fmt.Sprintf(`{"wait":true,"spec":%s}`, spec))
		hashes[i] = s.Hash()
	}
	rng := rand.New(rand.NewSource(seed))
	bodies := make([][]byte, n)
	want := make([]string, n)
	for k := range bodies {
		i := rng.Intn(len(specs))
		bodies[k], want[k] = byName[i], hashes[i]
		if rng.Float64() >= 0.8 {
			bodies[k] = inline[i]
		}
	}
	return bodies, want, nil
}

func setupServer(cfg config) (instance, error) {
	specs, err := sweepSpecs(0, cfg.size.specs)
	if err != nil {
		return nil, err
	}
	n := cfg.size.hotRequests
	if n == 0 {
		n = 20_000
	}
	w := &vpserver{reg: metrics.NewRegistry()}
	for _, s := range specs {
		w.names = append(w.names, s.Name)
	}
	if w.cold, err = json.Marshal(map[string]any{"scenarios": w.names, "wait": true}); err != nil {
		return nil, err
	}
	if w.hot, w.hotHash, err = hotMix(specs, n, cfg.seed); err != nil {
		return nil, err
	}
	w.srv = server.New(server.Config{
		Workers:   2,
		TrialJobs: 1,
		// The cold batch is one client's 68 jobs, above the default
		// per-client limit of 64.
		ClientInFlight: len(specs),
		Store:          server.NewMemStore(),
		Metrics:        w.reg,
	})
	w.ts = httptest.NewServer(w.srv)
	w.client = w.ts.Client()
	return w, nil
}

func (w *vpserver) close() {
	w.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	w.srv.Shutdown(ctx)
}

func (w *vpserver) pass(o passOpts) (passOut, error) {
	if !w.warm {
		w.warm = true
		return w.coldPass(o)
	}
	return w.hotPass(o), nil
}

// do sends one request and returns the status and body.
func (w *vpserver) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, w.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (w *vpserver) coldPass(o passOpts) (passOut, error) {
	var out passOut
	out.attempted++
	span := o.root.Child("batch")
	status, body, err := w.do(http.MethodPost, "/v1/batch", w.cold)
	span.End()
	if err != nil {
		return out, fmt.Errorf("POST /v1/batch: %w", err)
	}
	var batch server.BatchView
	if status != http.StatusOK {
		out.fail("POST /v1/batch: status %d: %s", status, body)
		return out, nil
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		return out, fmt.Errorf("POST /v1/batch: %w", err)
	}
	if batch.Done != len(w.names) {
		out.fail("batch: %d of %d jobs done, %d failed", batch.Done, len(w.names), batch.Failed)
	}
	d := sha256.New()
	for _, j := range batch.Jobs {
		out.attempted++
		span := o.root.Child("result")
		status, data, err := w.do(http.MethodGet, "/v1/jobs/"+j.ID+"/result", nil)
		span.End()
		if err != nil || status != http.StatusOK {
			out.fail("GET result of %s (%s): status %d, %v", j.ID, j.Scenario, status, err)
			continue
		}
		d.Write(data)
	}
	out.digest = hexSum(d)
	snap := w.reg.Snapshot()
	out.counts = map[string]uint64{"server.jobs.completed": snap.Counters["server.jobs.completed"]}
	return out, nil
}

// jobHead is the prefix of a JobView a hot response is checked by.
type jobHead struct {
	ID, State, Cache, SpecSHA256 string
}

// parseJobHead decodes the fields of a JobView response that precede
// the inlined result, without scanning the result itself.
func parseJobHead(body []byte) (jobHead, error) {
	var h jobHead
	dec := json.NewDecoder(bytes.NewReader(body))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return h, fmt.Errorf("job view is not a JSON object")
	}
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return h, err
		}
		var dst any
		switch t {
		case "result":
			return h, nil
		case "id":
			dst = &h.ID
		case "state":
			dst = &h.State
		case "cache":
			dst = &h.Cache
		case "spec_sha256":
			dst = &h.SpecSHA256
		default:
			dst = new(json.RawMessage)
		}
		if err := dec.Decode(dst); err != nil {
			return h, err
		}
	}
	return h, nil
}

// hotPass sends the hot request sequence from hotClients closed-loop
// clients, client c taking requests c, c+hotClients, ...
func (w *vpserver) hotPass(o passOpts) passOut {
	outs := make([]passOut, hotClients)
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.latencies = make([]float64, 0, len(w.hot)/hotClients+1)
			var lane obs.Span
			if o.root.Traced() {
				lane = o.root.ChildOn(c+1, "client")
				defer lane.End()
			}
			for k := c; k < len(w.hot); k += hotClients {
				out.attempted++
				span := lane.Child("request")
				t0 := time.Now()
				status, body, err := w.do(http.MethodPost, "/v1/jobs", w.hot[k])
				var h jobHead
				if err == nil && status == http.StatusOK {
					h, err = parseJobHead(body)
				}
				out.latencies = append(out.latencies, time.Since(t0).Seconds())
				span.End()
				switch {
				case err != nil:
					out.fail("request %d: %v", k, err)
				case status != http.StatusOK || h.State != string(server.StateDone) || h.Cache != server.CacheHit:
					out.fail("request %d: status %d, state %q, cache %q", k, status, h.State, h.Cache)
				case h.SpecSHA256 != w.hotHash[k]:
					out.fail("request %d: spec hash %s, want %s", k, h.SpecSHA256, w.hotHash[k])
				}
			}
		}(c)
	}
	wg.Wait()
	out := passOut{counts: map[string]uint64{}}
	for _, c := range outs {
		out.attempted += c.attempted
		out.failed += c.failed
		out.failures = append(out.failures, c.failures...)
		out.latencies = append(out.latencies, c.latencies...)
	}
	out.counts["server.hot.hits"] = uint64(out.attempted - out.failed)
	return out
}
