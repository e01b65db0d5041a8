package predictor

import (
	"testing"
	"testing/quick"
)

func newStride2D(t *testing.T, cfg StrideConfig) *Stride2D {
	t.Helper()
	p, err := NewStride2D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStride2DPredictsArithmeticSequence(t *testing.T) {
	p := newStride2D(t, StrideConfig{Confidence: 3})
	ctx := Context{PC: 0x40}
	for _, v := range []uint64{10, 17, 24, 31} {
		p.Update(ctx, v, Prediction{})
	}
	pred := p.Predict(ctx)
	if !pred.Hit || pred.Value != 38 {
		t.Fatalf("pred = %+v, want hit 38", pred)
	}
}

func TestStride2DConstantValuesZeroStride(t *testing.T) {
	// Constant values are the zero-stride case: 2-delta behaves like an
	// LVP, so the paper's constant-secret attacks carry over unchanged.
	p := newStride2D(t, StrideConfig{Confidence: 3})
	ctx := Context{PC: 0x40}
	for i := 0; i < 4; i++ {
		p.Update(ctx, 42, Prediction{})
	}
	pred := p.Predict(ctx)
	if !pred.Hit || pred.Value != 42 {
		t.Fatalf("pred = %+v, want hit 42", pred)
	}
}

func TestStride2DNeverPredictsEarly(t *testing.T) {
	p := newStride2D(t, StrideConfig{Confidence: 3})
	ctx := Context{PC: 0x40}
	if p.Predict(ctx).Hit {
		t.Error("cold predictor predicted")
	}
	p.Update(ctx, 10, Prediction{})
	if p.Predict(ctx).Hit {
		t.Error("single observation predicted (no stride yet)")
	}
	p.Update(ctx, 20, Prediction{})
	if p.Predict(ctx).Hit {
		t.Error("predicted below confidence")
	}
	p.Update(ctx, 30, Prediction{})
	if pred := p.Predict(ctx); !pred.Hit || pred.Value != 40 {
		t.Errorf("4th access pred = %+v, want hit 40", pred)
	}
}

func TestStride2DOneOffGlitchKeepsPattern(t *testing.T) {
	// The defining 2-delta property: one irregular delta does NOT
	// replace the predicted stride; the established pattern survives
	// (minus the confidence the failed prediction cost).
	p := newStride2D(t, StrideConfig{Confidence: 3, MaxConf: 8})
	ctx := Context{PC: 0x40}
	for _, v := range []uint64{0, 10, 20, 30, 40, 50} {
		p.Update(ctx, v, Prediction{})
	}
	if pred := p.Predict(ctx); !pred.Hit || pred.Value != 60 {
		t.Fatalf("trained pred = %+v, want hit 60", pred)
	}
	p.Update(ctx, 57, Prediction{Hit: true, Value: 60}) // one-off glitch
	// stride2 is still 10: the next prediction extrapolates 57+10.
	if pred := p.Predict(ctx); !pred.Hit || pred.Value != 67 {
		t.Errorf("post-glitch pred = %+v, want hit 67 (stride 10 kept)", pred)
	}
	// A plain stride predictor would have lost its training here.
	q := newStride(t, StrideConfig{Confidence: 3, MaxConf: 8})
	for _, v := range []uint64{0, 10, 20, 30, 40, 50} {
		q.Update(ctx, v, Prediction{})
	}
	q.Update(ctx, 57, Prediction{Hit: true, Value: 60})
	if q.Predict(ctx).Hit {
		t.Error("plain stride predictor should have reset on the glitch")
	}
}

func TestStride2DPromotesRepeatedNewStride(t *testing.T) {
	// The same new delta twice in a row replaces the predicted stride.
	p := newStride2D(t, StrideConfig{Confidence: 2})
	ctx := Context{PC: 0x40}
	for _, v := range []uint64{0, 10, 20, 30} {
		p.Update(ctx, v, Prediction{})
	}
	p.Update(ctx, 33, Prediction{}) // new delta 3, once
	p.Update(ctx, 36, Prediction{}) // new delta 3, twice: promoted
	p.Update(ctx, 39, Prediction{}) // confirms the promoted stride
	if pred := p.Predict(ctx); !pred.Hit || pred.Value != 42 {
		t.Errorf("pred = %+v, want hit 42 (stride 3 adopted)", pred)
	}
}

func TestStride2DModifyTestAsymmetry(t *testing.T) {
	// Security consequence for Modify+Test: a single conflicting access
	// fully resets an LVP entry, but costs a 2-delta entry only
	// confidence — the predicted stride survives, so the attacker's
	// 1-access perturbation is weaker (and the 2-access version, which
	// promotes the conflicting stride, is needed instead).
	p := newStride2D(t, StrideConfig{Confidence: 2, MaxConf: 8})
	ctx := Context{PC: 0x40}
	for i := 0; i < 6; i++ {
		p.Update(ctx, 42, Prediction{})
	}
	p.Update(ctx, 99, Prediction{Hit: true, Value: 42}) // 1-access modify
	// The zero stride survives the modify: as soon as the stream is
	// constant again (even at the new value), confidence rebuilds from
	// where the single failed prediction left it, not from zero.
	p.Update(ctx, 99, Prediction{})
	if pred := p.Predict(ctx); !pred.Hit || pred.Value != 99 {
		t.Errorf("pred = %+v; zero stride should survive the modify", pred)
	}
	// Destroying the training takes two accesses with a repeated
	// *non-zero* delta.
	q := newStride2D(t, StrideConfig{Confidence: 3, MaxConf: 8})
	for i := 0; i < 6; i++ {
		q.Update(ctx, 42, Prediction{})
	}
	q.Update(ctx, 50, Prediction{Hit: true, Value: 42})
	q.Update(ctx, 58, Prediction{})
	if q.Predict(ctx).Hit {
		t.Error("repeated delta-8 should have demoted the zero stride")
	}
}

func TestStride2DEvictionAndReset(t *testing.T) {
	p := newStride2D(t, StrideConfig{Entries: 2, Confidence: 1})
	for i := uint64(0); i < 3; i++ {
		p.Update(Context{PC: 0x40 + i*4}, i, Prediction{})
	}
	if p.Len() != 2 {
		t.Errorf("len = %d, want 2", p.Len())
	}
	if p.Evictions() != 1 {
		t.Errorf("evictions = %d", p.Evictions())
	}
	p.Reset()
	if p.Len() != 0 || p.Evictions() != 1 {
		t.Error("reset must empty the table and keep the eviction count")
	}
}

func TestStride2DLastValue(t *testing.T) {
	p := newStride2D(t, StrideConfig{Confidence: 4})
	ctx := Context{PC: 0x40}
	if _, ok := p.LastValue(ctx); ok {
		t.Error("cold LastValue should miss")
	}
	p.Update(ctx, 10, Prediction{})
	p.Update(ctx, 14, Prediction{})
	v, ok := p.LastValue(ctx)
	if !ok || v != 18 {
		t.Errorf("LastValue = %d (%v), want 18", v, ok)
	}
	a := NewAType(p, 0)
	if pred := a.Predict(ctx); !pred.Hit || pred.Value != 18 {
		t.Errorf("A-type over 2-delta = %+v", pred)
	}
}

func TestStride2DValidation(t *testing.T) {
	if _, err := NewStride2D(StrideConfig{Confidence: -1}); err == nil {
		t.Error("negative confidence should fail")
	}
	if p, err := NewStride2D(StrideConfig{}); err != nil || p.cfg.Confidence == 0 {
		t.Errorf("defaults not applied: %+v, %v", p, err)
	}
}

// Property: on a perfectly regular sequence, 2-delta and plain stride
// make identical predictions after training.
func TestPropertyStride2DMatchesStrideOnRegular(t *testing.T) {
	f := func(start, stride uint64, confSeed uint8) bool {
		conf := int(confSeed%6) + 1
		p2, err := NewStride2D(StrideConfig{Confidence: conf})
		if err != nil {
			return false
		}
		p1, err := NewStride(StrideConfig{Confidence: conf})
		if err != nil {
			return false
		}
		ctx := Context{PC: 0x80}
		v := start
		for i := 0; i <= conf; i++ {
			p1.Update(ctx, v, Prediction{})
			p2.Update(ctx, v, Prediction{})
			v += stride
		}
		a, b := p1.Predict(ctx), p2.Predict(ctx)
		return a == b && a.Hit && a.Value == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a glitch of any size injected into a trained constant
// stream never changes the 2-delta predicted stride (only a repeated
// delta can).
func TestPropertyStride2DGlitchImmune(t *testing.T) {
	f := func(base, glitch uint64) bool {
		if glitch == base {
			return true // not a glitch
		}
		if glitch-base == 1<<63 {
			// Degenerate: the return delta equals the glitch delta
			// (s == -s), so the glitch stride legitimately promotes.
			return true
		}
		p, err := NewStride2D(StrideConfig{Confidence: 2, MaxConf: 16})
		if err != nil {
			return false
		}
		ctx := Context{PC: 0x80}
		for i := 0; i < 8; i++ {
			p.Update(ctx, base, Prediction{})
		}
		p.Update(ctx, glitch, Prediction{Hit: true, Value: base})
		// Back to the constant: delta == base-glitch once (not promoted),
		// then zero deltas again. Within two further observations the
		// zero-stride prediction must be back.
		p.Update(ctx, base, Prediction{})
		p.Update(ctx, base, Prediction{})
		pred := p.Predict(ctx)
		return pred.Hit && pred.Value == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
