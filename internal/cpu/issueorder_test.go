package cpu

import (
	"math/rand"
	"testing"

	"vpsec/internal/predictor"
	"vpsec/internal/progen"
	"vpsec/internal/trace"
)

// TestIssueOrderOldestFirst pins the scheduling contract the bitmap
// scoreboard must preserve from the old sorted ready list: within any
// one cycle, instructions issue strictly oldest-first (ascending fetch
// seq). The ready scoreboard is scanned in ring order from the ROB
// head, which equals seq order by construction — this test is the
// direct witness, on a hazard-biased progen corpus (a tiny data region
// forces store/load aliasing, replays and squashes), across ROB
// geometries that exercise ring wrap and partial mask words, with
// invariant cross-checking on.
func TestIssueOrderOldestFirst(t *testing.T) {
	cfgs := []Config{
		{CheckInvariants: true},
		{CheckInvariants: true, SelectiveReplay: true},
		{CheckInvariants: true, ROBSize: 24, FetchWidth: 2, IssueWidth: 2, CommitWidth: 2, MemPorts: 1},
		{CheckInvariants: true, ROBSize: 96, SelectiveReplay: true},
	}
	pcfg := progen.Default()
	pcfg.DataWords = 4 // few addresses -> dense aliasing hazards
	for seed := int64(1); seed <= 12; seed++ {
		prog := progen.Generate(pcfg, seed)
		for ci, cfg := range cfgs {
			lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2})
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(cfg, nil, lvp, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			var rec trace.Recorder
			m.Events = rec.Record
			proc, err := m.NewProcess(1, prog, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(proc); err != nil {
				t.Fatalf("seed %d cfg %d: %v", seed, ci, err)
			}
			issued := 0
			var lastCycle, lastSeq uint64
			for _, ev := range rec.Events() {
				if ev.Kind != trace.Issue {
					continue
				}
				issued++
				if ev.Cycle == lastCycle && issued > 1 && ev.Seq <= lastSeq {
					t.Fatalf("seed %d cfg %d: cycle %d issued seq %d after seq %d (not oldest-first)",
						seed, ci, ev.Cycle, ev.Seq, lastSeq)
				}
				lastCycle, lastSeq = ev.Cycle, ev.Seq
			}
			if issued == 0 {
				t.Fatalf("seed %d cfg %d: no issue events recorded", seed, ci)
			}
		}
	}
}
