package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress is a Sink that renders live execution progress — trials
// done/total, throughput, ETA, and worker utilization — to a writer
// (stderr for the CLIs) at a fixed interval. It aggregates the same
// span stream the trace exporters record: "map" spans carry the item
// total and worker count, "trial" spans mark one work item each.
//
// Rendering is wall-clock presentation on a side channel; nothing
// here feeds results or metrics exports, so enabling -progress
// cannot change any experiment output.
type Progress struct {
	w        io.Writer
	interval time.Duration

	mu         sync.Mutex
	jobs       int              // workers of the current map
	mapTotal   int              // items of the current map (0 between maps)
	mapDone    int              // items finished in the current map
	done       int              // items finished overall
	cancels    int              // cancellation events observed
	busy       time.Duration    // summed trial-span durations
	openTrials map[uint64]Event // trial begin events by span id
	firstTS    time.Time        // wall time of the first trial begin
	lastLen    int              // previous render length, for clearing

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewProgress builds a progress renderer writing to w every interval
// (0 means 500ms). The render loop starts immediately; Close stops
// it and prints a final summary line.
func NewProgress(w io.Writer, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	p := &Progress{
		w:          w,
		interval:   interval,
		openTrials: make(map[uint64]Event),
		stop:       make(chan struct{}),
	}
	p.wg.Add(1)
	go p.loop()
	return p
}

// Emit folds one trace event into the progress state.
func (p *Progress) Emit(e Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case e.Name == "map" && e.Ph == PhaseBegin:
		p.mapTotal, p.mapDone = attrInt(e.Attrs, "items"), 0
		p.jobs = attrInt(e.Attrs, "jobs")
	case e.Name == "map" && e.Ph == PhaseEnd:
		p.mapTotal, p.mapDone = 0, 0
	case e.Name == "trial" && e.Ph == PhaseBegin:
		if p.firstTS.IsZero() {
			p.firstTS = time.Now()
		}
		p.openTrials[e.Span] = e
	case e.Name == "trial" && e.Ph == PhaseEnd:
		if b, ok := p.openTrials[e.Span]; ok {
			p.busy += e.TS - b.TS
			delete(p.openTrials, e.Span)
		}
		p.done++
		p.mapDone++
	case (e.Name == "cancel" || e.Name == "skip") && e.Ph == PhaseInstant:
		p.cancels++
	}
}

// attrInt extracts an integer attribute (the tracer records ints;
// JSON round-trips may deliver float64).
func attrInt(attrs []Attr, key string) int {
	for _, a := range attrs {
		if a.Key != key {
			continue
		}
		switch v := a.Val.(type) {
		case int:
			return v
		case int64:
			return int(v)
		case float64:
			return int(v)
		}
	}
	return 0
}

// loop renders on the interval until Close.
func (p *Progress) loop() {
	defer p.wg.Done()
	tick := time.NewTicker(p.interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			fmt.Fprint(p.w, "\r"+p.line())
		case <-p.stop:
			return
		}
	}
}

// line renders the current progress state as one status line, padded
// to overwrite the previous render.
func (p *Progress) line() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var s string
	if p.mapTotal > 0 {
		s = fmt.Sprintf("%d/%d trials", p.mapDone, p.mapTotal)
	} else {
		s = fmt.Sprintf("%d trials", p.done)
	}
	elapsed := time.Since(p.firstTS)
	if !p.firstTS.IsZero() && elapsed > 0 && p.done > 0 {
		rate := float64(p.done) / elapsed.Seconds()
		s += fmt.Sprintf(" · %.1f trials/s", rate)
		if p.mapTotal > 0 && rate > 0 {
			eta := float64(p.mapTotal-p.mapDone) / rate
			s += fmt.Sprintf(" · ETA %.1fs", eta)
		}
		if p.jobs > 0 {
			util := p.busy.Seconds() / (elapsed.Seconds() * float64(p.jobs))
			if util > 1 {
				util = 1
			}
			s += fmt.Sprintf(" · workers %3.0f%%", util*100)
		}
	}
	if p.cancels > 0 {
		s += fmt.Sprintf(" · %d cancelled", p.cancels)
	}
	// Pad over the previous, possibly longer, render.
	for len(s) < p.lastLen {
		s += " "
	}
	p.lastLen = len(s)
	return s
}

// Close stops the render loop and writes the final summary line.
func (p *Progress) Close() error {
	close(p.stop)
	p.wg.Wait()
	fmt.Fprint(p.w, "\r"+p.line()+"\n")
	return nil
}
