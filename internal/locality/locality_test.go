package locality

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"vpsec/internal/isa"
	"vpsec/internal/rsa"
	"vpsec/internal/workload"
)

// loopLoad builds a program that loads a sequence of pre-staged values
// through one static load PC (values[i] read on iteration i).
func loopLoad(values []uint64) *isa.Program {
	b := isa.NewBuilder("loop-load")
	const base = 0x1000
	for i, v := range values {
		b.Word(base+uint64(8*i), v)
	}
	b.MovI(isa.R1, base)
	b.MovI(isa.R2, 0)
	b.MovI(isa.R3, int64(len(values)))
	b.Label("loop")
	b.ShlI(isa.R4, isa.R2, 3)
	b.Add(isa.R4, isa.R1, isa.R4)
	b.Load(isa.R5, isa.R4, 0) // the audited load
	b.AddI(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, "loop")
	b.Halt()
	return b.MustBuild()
}

// onlyLoad returns the single PCStats row of a one-load program.
func onlyLoad(t *testing.T, r *Report) PCStats {
	t.Helper()
	if len(r.Loads) != 1 {
		t.Fatalf("report has %d loads, want 1: %+v", len(r.Loads), r.Loads)
	}
	return r.Loads[0]
}

func TestConstantStreamIsLastValuePredictable(t *testing.T) {
	vals := make([]uint64, 16)
	for i := range vals {
		vals[i] = 42
	}
	r, err := Profile(loopLoad(vals))
	if err != nil {
		t.Fatal(err)
	}
	s := onlyLoad(t, r)
	if s.Count != 16 || s.DistinctValues != 1 {
		t.Errorf("count=%d distinct=%d, want 16/1", s.Count, s.DistinctValues)
	}
	if s.LastValue != 1 {
		t.Errorf("last-value rate = %.2f, want 1", s.LastValue)
	}
	// All three families capture a constant; the simplest wins the tie.
	if got := s.Best(DefaultThreshold); got != "last-value" {
		t.Errorf("best = %q, want last-value", got)
	}
	if !s.Predictable(DefaultThreshold) {
		t.Error("constant stream should be predictable")
	}
}

func TestArithmeticStreamIsStridePredictable(t *testing.T) {
	vals := make([]uint64, 16)
	for i := range vals {
		vals[i] = 100 + 7*uint64(i)
	}
	r, err := Profile(loopLoad(vals))
	if err != nil {
		t.Fatal(err)
	}
	s := onlyLoad(t, r)
	if s.LastValue != 0 {
		t.Errorf("last-value rate = %.2f, want 0", s.LastValue)
	}
	if s.Stride != 1 {
		t.Errorf("stride rate = %.2f, want 1", s.Stride)
	}
	if got := s.Best(DefaultThreshold); got != "stride" {
		t.Errorf("best = %q, want stride", got)
	}
}

func TestAlternatingStreamIsContextPredictable(t *testing.T) {
	vals := make([]uint64, 16)
	for i := range vals {
		vals[i] = 0xA0
		if i%2 == 1 {
			vals[i] = 0xB0
		}
	}
	r, err := Profile(loopLoad(vals))
	if err != nil {
		t.Fatal(err)
	}
	s := onlyLoad(t, r)
	if s.LastValue != 0 {
		t.Errorf("last-value rate = %.2f, want 0", s.LastValue)
	}
	if s.Stride > 0.1 {
		t.Errorf("stride rate = %.2f, want ~0 (deltas alternate sign)", s.Stride)
	}
	// ctx warm-up costs two transitions; 12/15 checks hit.
	if s.Context < 0.75 {
		t.Errorf("context rate = %.2f, want >= 0.75", s.Context)
	}
	if got := s.Best(DefaultThreshold); got != "context" {
		t.Errorf("best = %q, want context", got)
	}
}

func TestRandomStreamIsUnpredictable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	r, err := Profile(loopLoad(vals))
	if err != nil {
		t.Fatal(err)
	}
	s := onlyLoad(t, r)
	if s.Predictable(DefaultThreshold) {
		t.Errorf("random stream predictable: %+v", s)
	}
	if got := s.Best(DefaultThreshold); got != "none" {
		t.Errorf("best = %q, want none", got)
	}
	if len(r.Surface(DefaultThreshold)) != 0 {
		t.Error("surface should be empty")
	}
}

// TestRSAVictimSurface cross-validates the audit against the paper's
// Fig. 6 victim: the balanced 0-bit path's dummy-pointer load is
// last-value predictable (it is what the LVP trains on and what makes
// 0-bit iterations fast), while the 1-bit path's swap-pointer load
// strictly alternates two buffer addresses — invisible to last-value
// and stride families, but captured by an order-1 context predictor,
// exactly the FCM ablation's finding.
func TestRSAVictimSurface(t *testing.T) {
	cfg := rsa.VictimConfig{
		Base: 0x1234567, Mod: 0x3b9aca07,
		// 16 one-bits so the swap load's context model warms up.
		Exponent: 0b1101_1011_1011_0110_1101_1010,
		ExpBits:  24,
	}
	prog, err := rsa.BuildVictim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Profile(prog)
	if err != nil {
		t.Fatal(err)
	}
	var dummy, swap bool
	for _, s := range r.Loads {
		if s.Count < 8 {
			continue
		}
		if s.DistinctValues == 1 && s.LastValue == 1 {
			dummy = true
		}
		if s.DistinctValues == 2 && s.LastValue < 0.2 && s.Context >= 0.75 &&
			s.Best(DefaultThreshold) == "context" {
			swap = true
		}
	}
	if !dummy {
		t.Error("no constant (dummy-pointer-like) load found in the victim")
	}
	if !swap {
		t.Errorf("no alternating context-predictable (swap-pointer) load found; loads: %+v", r.Loads)
	}
}

func TestReportString(t *testing.T) {
	vals := []uint64{5, 5, 5, 5, 5, 5, 5, 5}
	r, err := Profile(loopLoad(vals))
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"value-locality audit", "last", "1/1 static loads"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// Property: hit rates are always within [0,1] and a single-execution
// load reports zero for every family.
func TestPropertyRatesBounded(t *testing.T) {
	f := func(raw []uint64) bool {
		if len(raw) == 0 {
			raw = []uint64{1}
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		prog := loopLoad(raw)
		r, err := Profile(prog)
		if err != nil {
			return false
		}
		for _, s := range r.Loads {
			for _, rate := range []float64{s.LastValue, s.Stride, s.Context} {
				if rate < 0 || rate > 1 {
					return false
				}
			}
			if s.Count == 1 && (s.LastValue != 0 || s.Stride != 0 || s.Context != 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAuditVsWorkloadSpeedup cross-validates the audit against the
// timed pipeline on the performance workloads, and pins the crucial
// asymmetry between the two things predictability buys:
//
//   - the pointer chase is addr-last-value predictable AND serially
//     dependent, so the same property that makes it leak also speeds
//     it up (the intro's performance case);
//   - the hash probe is equally addr-last-value predictable — its slot
//     values never change, so it is attack surface — but its loads are
//     independent, so value prediction buys no speedup. Predictability
//     means leakable; it only means faster when a dependence chain
//     consumes the prediction;
//   - the stream sum is unpredictable under every family and VP is
//     neutral on it.
func TestAuditVsWorkloadSpeedup(t *testing.T) {
	chase, err := workload.PointerChase(64, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := workload.HashProbe(64, 300)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := workload.StreamSum(300)
	if err != nil {
		t.Fatal(err)
	}

	audit := func(p *isa.Program) PCStats {
		r, err := Profile(p)
		if err != nil {
			t.Fatal(err)
		}
		// Each workload has exactly one hot load; take the most-executed.
		best := r.Loads[0]
		for _, s := range r.Loads {
			if s.Count > best.Count {
				best = s
			}
		}
		return best
	}
	speedup := func(p *isa.Program) float64 {
		s, err := workload.Speedup(p, workload.LVPByAddr(2), 3)
		if err != nil {
			t.Fatal(err)
		}
		return s.Speedup
	}

	c := audit(chase)
	if c.AddrLastValue < 0.95 || c.Best(DefaultThreshold) != "addr-last-value" {
		t.Errorf("chase audit = %+v, want addr-last-value ~1", c)
	}
	if sp := speedup(chase); sp < 1.5 {
		t.Errorf("chase speedup = %.2f, want > 1.5 (dependence chain)", sp)
	}

	h := audit(hp)
	if h.AddrLastValue < 0.95 {
		t.Errorf("hash-probe audit = %+v, want addr-last-value ~1 (constant slots)", h)
	}
	if h.LastValue > 0.2 || h.Context > 0.2 {
		t.Errorf("hash-probe PC-indexed rates should be low: %+v", h)
	}
	if sp := speedup(hp); sp > 1.1 {
		t.Errorf("hash-probe speedup = %.2f, want ~1 (independent loads)", sp)
	}

	s := audit(ss)
	if s.Predictable(DefaultThreshold) {
		t.Errorf("stream-sum audit = %+v, want unpredictable", s)
	}
	if sp := speedup(ss); sp > 1.1 || sp < 0.9 {
		t.Errorf("stream-sum speedup = %.2f, want ~1", sp)
	}
}

// TestContextOrderDepth: the stream A,B,A,C repeats, so the value
// after A alternates B/C — an order-1 context model is right only half
// the time, while order 2 (like the repo's deeper FCM configurations)
// disambiguates via the value before A and captures it fully.
func TestContextOrderDepth(t *testing.T) {
	vals := make([]uint64, 32)
	for i := 0; i < len(vals); i += 4 {
		vals[i+0] = 0xA
		vals[i+1] = 0xB
		vals[i+2] = 0xA
		vals[i+3] = 0xC
	}
	prog := loopLoad(vals)

	r1, err := ProfileOpts(prog, Options{ContextOrder: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1 := onlyLoad(t, r1)
	if s1.Context > 0.6 {
		t.Errorf("order-1 context rate = %.2f, want ~0.5 (A's successor alternates)", s1.Context)
	}

	r2, err := ProfileOpts(prog, Options{ContextOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	s2 := onlyLoad(t, r2)
	if s2.Context < 0.8 {
		t.Errorf("order-2 context rate = %.2f, want >= 0.8", s2.Context)
	}
	if s2.Context <= s1.Context {
		t.Errorf("order-2 (%.2f) should beat order-1 (%.2f)", s2.Context, s1.Context)
	}
}

func TestProfileOptsValidation(t *testing.T) {
	prog := loopLoad([]uint64{1, 2, 3})
	if _, err := ProfileOpts(prog, Options{ContextOrder: -1}); err == nil {
		t.Error("negative order should fail")
	}
	if _, err := ProfileOpts(prog, Options{ContextOrder: 17}); err == nil {
		t.Error("order 17 should fail")
	}
	r, err := ProfileOpts(prog, Options{})
	if err != nil || r.Opt.ContextOrder != 1 {
		t.Errorf("defaults not applied: %+v, %v", r.Opt, err)
	}
}

// TestLoadIntoR0Audited: a load whose destination is r0 writes no
// register but still reads memory, so its value stream is audited.
func TestLoadIntoR0Audited(t *testing.T) {
	b := isa.NewBuilder("load-r0")
	b.Word(0x1000, 42)
	b.MovI(isa.R1, 0x1000)
	b.MovI(isa.R2, 0)
	b.MovI(isa.R3, 8)
	b.Label("loop")
	b.Load(isa.R0, isa.R1, 0)
	b.AddI(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, "loop")
	b.Halt()
	r, err := Profile(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	s := onlyLoad(t, r)
	if s.Count != 8 || s.DistinctValues != 1 || s.LastValue != 1 {
		t.Errorf("count=%d distinct=%d lastv=%.2f, want 8 1 1", s.Count, s.DistinctValues, s.LastValue)
	}
}
