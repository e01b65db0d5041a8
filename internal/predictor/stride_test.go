package predictor

import (
	"testing"
	"testing/quick"
)

func newStride(t *testing.T, cfg StrideConfig) *Stride {
	t.Helper()
	p, err := NewStride(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStridePredictsArithmeticSequence(t *testing.T) {
	p := newStride(t, StrideConfig{Confidence: 3})
	ctx := Context{PC: 0x40}
	// Values 10, 17, 24, 31: stride 7 stable for 3 observations.
	for _, v := range []uint64{10, 17, 24, 31} {
		p.Update(ctx, v, Prediction{})
	}
	pred := p.Predict(ctx)
	if !pred.Hit || pred.Value != 38 {
		t.Fatalf("pred = %+v, want hit 38", pred)
	}
}

func TestStrideConstantValuesZeroStride(t *testing.T) {
	// Constant values are the zero-stride case: the predictor behaves
	// like an LVP, which is why the paper's attacks carry over.
	p := newStride(t, StrideConfig{Confidence: 3})
	ctx := Context{PC: 0x40}
	for i := 0; i < 4; i++ {
		p.Update(ctx, 42, Prediction{})
	}
	pred := p.Predict(ctx)
	if !pred.Hit || pred.Value != 42 {
		t.Fatalf("pred = %+v, want hit 42", pred)
	}
}

func TestStrideNeverPredictsEarly(t *testing.T) {
	// Confidence 3: the first prediction is the 4th access (paper
	// convention), i.e. after two stride repeats.
	p := newStride(t, StrideConfig{Confidence: 3})
	ctx := Context{PC: 0x40}
	if p.Predict(ctx).Hit {
		t.Error("cold predictor predicted")
	}
	p.Update(ctx, 10, Prediction{})
	if p.Predict(ctx).Hit {
		t.Error("single observation predicted (no stride yet)")
	}
	p.Update(ctx, 20, Prediction{}) // first stride observation
	if p.Predict(ctx).Hit {
		t.Error("predicted below confidence")
	}
	p.Update(ctx, 30, Prediction{}) // second stride observation
	if pred := p.Predict(ctx); !pred.Hit || pred.Value != 40 {
		t.Errorf("4th access pred = %+v, want hit 40", pred)
	}
}

func TestStrideChangeResetsConfidence(t *testing.T) {
	p := newStride(t, StrideConfig{Confidence: 3})
	ctx := Context{PC: 0x40}
	for _, v := range []uint64{10, 20, 30} {
		p.Update(ctx, v, Prediction{})
	}
	if !p.Predict(ctx).Hit {
		t.Fatal("should be trained")
	}
	p.Update(ctx, 35, Prediction{Hit: true, Value: 40}) // stride breaks
	if p.Predict(ctx).Hit {
		t.Error("confidence should have reset on stride change")
	}
}

func TestStrideDescendingSequence(t *testing.T) {
	// Negative strides work through two's-complement wraparound.
	p := newStride(t, StrideConfig{Confidence: 2})
	ctx := Context{PC: 0x40}
	for _, v := range []uint64{100, 90, 80} {
		p.Update(ctx, v, Prediction{})
	}
	pred := p.Predict(ctx)
	if !pred.Hit || pred.Value != 70 {
		t.Fatalf("pred = %+v, want hit 70", pred)
	}
}

func TestStrideEvictionAndReset(t *testing.T) {
	p := newStride(t, StrideConfig{Entries: 2, Confidence: 1})
	for i := uint64(0); i < 3; i++ {
		ctx := Context{PC: 0x40 + i*4}
		p.Update(ctx, i, Prediction{})
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

func TestStrideLastValue(t *testing.T) {
	p := newStride(t, StrideConfig{Confidence: 4})
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
	// A-type wraps it like the others.
	a := NewAType(p, 0)
	if pred := a.Predict(ctx); !pred.Hit || pred.Value != 18 {
		t.Errorf("A-type over stride = %+v", pred)
	}
}

func TestStrideValidation(t *testing.T) {
	if _, err := NewStride(StrideConfig{Entries: -1}); err == nil {
		t.Error("negative entries should fail")
	}
}

// Property: for any start and stride, after confidence+1 observations
// the predictor extrapolates exactly.
func TestPropertyStrideExtrapolates(t *testing.T) {
	f := func(start, stride uint64, confSeed uint8) bool {
		conf := int(confSeed%6) + 1
		p, err := NewStride(StrideConfig{Confidence: conf})
		if err != nil {
			return false
		}
		ctx := Context{PC: 0x80}
		v := start
		for i := 0; i <= conf; i++ {
			p.Update(ctx, v, Prediction{})
			v += stride
		}
		pred := p.Predict(ctx)
		return pred.Hit && pred.Value == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
