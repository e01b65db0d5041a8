package attacks

import (
	"context"
	"encoding/json"
	"slices"
	"sync"

	"vpsec/internal/core"
	"vpsec/internal/obs"
)

// Case is one Run evaluation: a category over Opt.Channel, configured
// by the rest of Opt. It is the unit every multi-case driver (TableIII,
// the sweeps, the defense matrix, the figure panels) lists and hands
// to RunCases.
type Case struct {
	Category core.Category
	Opt      Options
}

// RunCases evaluates every case as Run does and returns the results in
// case order. Without a Memo in ctx it runs the cases one after another
// and stops at the first error.
//
// Under a Memo (WithMemo), a case is evaluated once among all the
// RunCases calls that share the Memo: a case already evaluated is
// served as a copy of that result, carrying this call's own Opt, and
// emits a "shared" instant event with the case's trial count
// ("items") on the span ctx carries. A case another call is
// evaluating is deferred: RunCases first evaluates every case nobody
// holds, and only then waits for the deferred ones, so two calls never
// wait on each other. A case whose evaluator failed or was cancelled
// is evaluated again by the next caller that needs it. A case whose
// Opt.Metrics is set always runs here, because its export must record
// every trial.
func RunCases(ctx context.Context, cases []Case) ([]CaseResult, error) {
	m, _ := ctx.Value(memoCtxKey{}).(*Memo)
	if m != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	out := make([]CaseResult, len(cases))
	keys := make([]string, len(cases))
	var deferred []int
	for i, c := range cases {
		if keys[i] = m.key(c); keys[i] == "" {
			r, err := Run(ctx, c.Category, c.Opt)
			if err != nil {
				return nil, err
			}
			out[i] = r
			continue
		}
		served, err := m.eval(ctx, keys[i], c, false, &out[i])
		if err != nil {
			return nil, err
		}
		if !served {
			deferred = append(deferred, i)
		}
	}
	for _, i := range deferred {
		if _, err := m.eval(ctx, keys[i], cases[i], true, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Memo holds the case results a group of RunCases calls share — in
// vpserver, the jobs of one batch. Keep one only as long as that group
// runs: a memo never evicts, and a longer-lived one would turn repeated
// evaluations into lookups.
type Memo struct {
	mu sync.Mutex
	m  map[string]*memoEntry
}

// memoEntry is one case in a Memo. Its evaluator sets res and ok, then
// closes done; on failure it deletes the entry before closing done.
type memoEntry struct {
	done chan struct{}
	res  CaseResult
	ok   bool
}

// NewMemo returns an empty Memo.
func NewMemo() *Memo {
	return &Memo{m: make(map[string]*memoEntry)}
}

// memoCtxKey keys the Memo in a context.
type memoCtxKey struct{}

// WithMemo returns ctx carrying m, under which RunCases shares results
// with every other call under m.
func WithMemo(ctx context.Context, m *Memo) context.Context {
	return context.WithValue(ctx, memoCtxKey{}, m)
}

// key identifies c within m: its category and the JSON of its
// defaulted options with Jobs zeroed, since results are identical at
// every worker count (Metrics and Trace are excluded from JSON). It is
// "", and c runs unshared, when m is nil or c has a metrics registry.
func (m *Memo) key(c Case) string {
	if m == nil || c.Opt.Metrics != nil {
		return ""
	}
	o := c.Opt.WithDefaults()
	o.Jobs = 0
	data, err := json.Marshal(o)
	if err != nil {
		return ""
	}
	return string(c.Category) + "\x00" + string(data)
}

// eval stores c's result in *dst: a copy of key's result when it is
// done, or c evaluated here when nobody holds key. When another call
// is evaluating key, eval waits for it if wait is set and otherwise
// returns served false. It returns served true once *dst holds the
// result.
func (m *Memo) eval(ctx context.Context, key string, c Case, wait bool, dst *CaseResult) (served bool, err error) {
	for {
		m.mu.Lock()
		e, held := m.m[key]
		if !held {
			e = &memoEntry{done: make(chan struct{})}
			m.m[key] = e
		}
		m.mu.Unlock()
		if !held {
			r, err := Run(ctx, c.Category, c.Opt)
			if err != nil {
				m.mu.Lock()
				delete(m.m, key)
				m.mu.Unlock()
				close(e.done)
				return false, err
			}
			e.res, e.ok = r, true
			close(e.done)
			*dst = r
			return true, nil
		}
		select {
		case <-e.done:
		default:
			if !wait {
				return false, nil
			}
			select {
			case <-e.done:
			case <-ctx.Done():
				return false, ctx.Err()
			}
		}
		if e.ok {
			*dst = e.res.sharedAs(c.Opt)
			if span := obs.FromContext(ctx); span.Traced() {
				span.Event("shared", obs.Int("items", 2*dst.Opt.Runs))
			}
			return true, nil
		}
		// The evaluator failed and deleted the entry: claim it afresh.
	}
}

// sharedAs returns the copy of r a caller that asked for opt receives:
// its own defaulted options and its own observation slices, which the
// caller may rewrite.
func (r CaseResult) sharedAs(opt Options) CaseResult {
	r.Opt = opt.WithDefaults()
	r.Mapped = slices.Clone(r.Mapped)
	r.Unmapped = slices.Clone(r.Unmapped)
	r.TTrajectory = slices.Clone(r.TTrajectory)
	return r
}
