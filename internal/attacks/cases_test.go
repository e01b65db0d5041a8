package attacks

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"vpsec/internal/core"
	"vpsec/internal/obs"
)

// caseEvents counts the events RunCases's sharing shows in a trace:
// "map" spans (one per evaluated case) and "shared" instants with the
// trial items they carry. The tracer serializes Emit; the test reads
// the counts only after every caller returned.
type caseEvents struct {
	maps, shared, sharedItems int
}

func (c *caseEvents) Emit(e obs.Event) {
	switch {
	case e.Name == "map" && e.Ph == obs.PhaseBegin:
		c.maps++
	case e.Name == "shared" && e.Ph == obs.PhaseInstant:
		c.shared++
		for _, a := range e.Attrs {
			if a.Key == "items" {
				c.sharedItems += a.Val.(int)
			}
		}
	}
}

func (c *caseEvents) Close() error { return nil }

// onFirst is a sink that calls fn on the first event named name with
// phase ph — a probe for where a RunCases call has got to.
type onFirst struct {
	name string
	ph   byte
	once sync.Once
	fn   func()
}

func (s *onFirst) Emit(e obs.Event) {
	if e.Name == s.name && e.Ph == s.ph {
		s.once.Do(s.fn)
	}
}

func (s *onFirst) Close() error { return nil }

// TestRunCasesShared: two concurrent RunCases calls over overlapping
// case lists under one Memo return exactly the results each list has
// without a memo, each carrying its caller's own options, while every
// distinct case runs its trial map once and every overlap is served
// as one shared event. An evaluator cancelled mid-case leaves no entry
// behind: the caller that deferred the case evaluates it itself.
func TestRunCasesShared(t *testing.T) {
	events := &caseEvents{}
	tr := obs.New(events)
	mk := func(cat core.Category, ch core.Channel, seed int64, jobs int) Case {
		return Case{Category: cat, Opt: Options{Channel: ch, Runs: 4, Seed: seed, Jobs: jobs, Trace: tr}}
	}
	// The second list runs at another worker count: Jobs is not part of
	// a case's identity, but each caller gets its own Opt back.
	listAt := func(jobs int) [5]Case {
		return [5]Case{
			mk(core.TrainTest, core.TimingWindow, 1, jobs),
			mk(core.TestHit, core.TimingWindow, 1, jobs),
			mk(core.TrainTest, core.Persistent, 2, jobs),
			mk(core.FillUp, core.TimingWindow, 3, jobs),
			mk(core.SpillOver, core.TimingWindow, 4, jobs),
		}
	}
	one, two := listAt(1), listAt(2)
	lists := [][]Case{{one[0], one[1], one[2], one[3]}, {two[2], two[3], two[4], two[0]}}

	want := make([][]CaseResult, len(lists))
	for i, l := range lists {
		r, err := RunCases(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	*events = caseEvents{}
	root := tr.Start("test")
	ctx := obs.NewContext(WithMemo(context.Background(), NewMemo()), root)
	got := make([][]CaseResult, len(lists))
	errs := make([]error, len(lists))
	var wg sync.WaitGroup
	for i := range lists {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = RunCases(ctx, lists[i])
		}(i)
	}
	wg.Wait()
	root.End()
	for i := range lists {
		if errs[i] != nil {
			t.Fatalf("list %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("list %d: results under the memo differ from the results without one", i)
		}
	}
	// Five distinct cases, three of them in both lists.
	if events.maps != 5 {
		t.Errorf("%d trial maps ran, want one per distinct case (5)", events.maps)
	}
	if events.shared != 3 || events.sharedItems != 3*8 {
		t.Errorf("%d shared events with %d items, want 3 with %d", events.shared, events.sharedItems, 3*8)
	}

	// A holds x and is blocked inside its first trial; B defers x,
	// evaluates y, and must evaluate x itself once A is cancelled.
	memo := NewMemo()
	x, y := mk(core.TestHit, core.Persistent, 5, 1), mk(core.ModifyTest, core.TimingWindow, 6, 1)
	wantX, err := Run(context.Background(), x.Category, x.Opt)
	if err != nil {
		t.Fatal(err)
	}
	wantY, err := Run(context.Background(), y.Category, y.Opt)
	if err != nil {
		t.Fatal(err)
	}
	mid, release, deferred := make(chan struct{}), make(chan struct{}), make(chan struct{})
	xa := x
	xa.Opt.Trace = obs.New(&onFirst{name: "trial", ph: obs.PhaseBegin, fn: func() {
		close(mid)
		<-release
	}})
	yb := y
	yb.Opt.Trace = obs.New(&onFirst{name: "map", ph: obs.PhaseBegin, fn: func() { close(deferred) }})

	actx, cancel := context.WithCancel(WithMemo(context.Background(), memo))
	defer cancel()
	var errA, errB error
	var gotB []CaseResult
	var owners sync.WaitGroup
	owners.Add(2)
	go func() {
		defer owners.Done()
		_, errA = RunCases(actx, []Case{xa})
	}()
	<-mid
	go func() {
		defer owners.Done()
		gotB, errB = RunCases(WithMemo(context.Background(), memo), []Case{x, yb})
	}()
	<-deferred
	cancel()
	close(release)
	owners.Wait()
	if !errors.Is(errA, context.Canceled) {
		t.Errorf("cancelled evaluator: err %v, want context.Canceled", errA)
	}
	if errB != nil {
		t.Fatalf("deferring caller: %v", errB)
	}
	wantY.Opt.Trace = yb.Opt.Trace
	if !reflect.DeepEqual(gotB, []CaseResult{wantX, wantY}) {
		t.Error("the caller that deferred the cancelled case got a wrong result")
	}
}
