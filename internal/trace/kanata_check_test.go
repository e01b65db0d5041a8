package trace_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"vpsec/internal/cpu"
	"vpsec/internal/predictor"
	"vpsec/internal/progen"
	"vpsec/internal/trace"
)

// TestKanataRoundTrip runs harness-generated programs with the
// recorder attached, exports the Kanata log, and re-parses it with
// CheckKanata: the log must validate, every introduced id must be
// closed, and the parsed retired count must equal the machine's
// retired-instruction counter.
func TestKanataRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		prog := progen.Generate(progen.Default(), seed)
		lvp, err := predictor.NewLVP(predictor.LVPConfig{Confidence: 2})
		if err != nil {
			t.Fatal(err)
		}
		m, err := cpu.NewMachine(cpu.Config{SelectiveReplay: true}, nil, lvp, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		var rec trace.Recorder
		m.Events = rec.Record
		proc, err := m.NewProcess(1, prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(proc)
		if err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		if err := rec.ExportKanata(&buf); err != nil {
			t.Fatal(err)
		}
		stats, err := trace.CheckKanata(&buf)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if uint64(stats.Retired) != res.Retired {
			t.Errorf("seed %d: log retired %d, machine retired %d", seed, stats.Retired, res.Retired)
		}
		if stats.Live != 0 {
			t.Errorf("seed %d: %d ids never closed by an R record", seed, stats.Live)
		}
		if stats.Instructions < stats.Retired {
			t.Errorf("seed %d: %d I records < %d retirements", seed, stats.Instructions, stats.Retired)
		}
	}
}

// TestCheckKanataRejects feeds malformed logs and expects the named
// violation to be caught.
func TestCheckKanataRejects(t *testing.T) {
	cases := []struct {
		name, log, want string
	}{
		{"bad header", "Kanata\t0003\n", "bad header"},
		{"dead id stage", "Kanata\t0004\nS\t1\t0\tF\n", "dead id"},
		{"double introduce", "Kanata\t0004\nI\t1\t1\t0\nI\t1\t2\t0\n", "while live"},
		{"retire order", "Kanata\t0004\nI\t1\t1\t0\nR\t1\t2\t0\n", "must increase"},
		{"zero delta", "Kanata\t0004\nC\t0\n", "cycle delta"},
		{"dead retire", "Kanata\t0004\nR\t5\t1\t0\n", "dead id"},
	}
	for _, tc := range cases {
		_, err := trace.CheckKanata(strings.NewReader(tc.log))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}
