package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
)

// viewMemo holds, per spec hash, the result fragment of a done job's
// view: the stored result HTML-escaped, compacted and indented at depth
// 1 — exactly the bytes json.Encoder with SetIndent("", "  ") writes
// for JobView.Result. With it a cache hit costs a store lookup plus a
// copy of these bytes instead of re-encoding the whole result per
// request. A spec hash names one result (see Store), so an entry never
// goes stale; the memo lives as long as the server and its store, and
// holds one entry per hash whose result a job view has served.
type viewMemo struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// fragment returns the memoized fragment for hash, rendering it from
// result on first use. An error means result is not valid JSON — an
// unreadable store entry — and nothing is memoized.
func (v *viewMemo) fragment(hash string, result []byte) ([]byte, error) {
	v.mu.RLock()
	frag, ok := v.m[hash]
	v.mu.RUnlock()
	if ok {
		return frag, nil
	}
	// Marshaling a RawMessage validates, compacts and HTML-escapes it,
	// as the encoder does for the field.
	compact, err := json.Marshal(json.RawMessage(result))
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := json.Indent(&b, compact, "  ", "  "); err != nil {
		return nil, err
	}
	frag = b.Bytes()
	v.mu.Lock()
	v.m[hash] = frag
	v.mu.Unlock()
	return frag, nil
}

// resultField and viewEnd close an indented envelope cut before its
// closing "\n}", with a result fragment spliced in between: result is
// JobView's last field.
var (
	resultField = []byte(",\n  \"result\": ")
	viewEnd     = []byte("\n}\n")
)

// writeJobView answers with j's view, byte for byte what writeJSON of
// the view with Result set writes: the small envelope is encoded per
// request and a done job's result follows as its memoized fragment. A
// stored result that does not parse answers 500 internal, before any
// header is written.
func (s *Server) writeJobView(w http.ResponseWriter, status int, j *Job) {
	v, result := j.snapshot()
	var frag []byte
	if v.State == StateDone {
		var err error
		if frag, err = s.views.fragment(j.Hash, result); err != nil {
			writeError(w, http.StatusInternalServerError, "internal", "job %s: unreadable stored result: %v", j.ID, err)
			return
		}
	}
	env, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "job %s: %v", j.ID, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(env[:len(env)-len("\n}")])
	if frag != nil {
		w.Write(resultField)
		w.Write(frag)
	}
	w.Write(viewEnd)
}
