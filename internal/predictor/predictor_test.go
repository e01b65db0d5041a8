package predictor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newLVP(t *testing.T, cfg LVPConfig) *LVP {
	t.Helper()
	p, err := NewLVP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// train performs n observe-update rounds of value v at ctx.
func train(p Predictor, ctx Context, v uint64, n int) {
	for i := 0; i < n; i++ {
		pred := p.Predict(ctx)
		p.Update(ctx, v, pred)
	}
}

func TestLVPConfidenceThreshold(t *testing.T) {
	p := newLVP(t, LVPConfig{Confidence: 4})
	ctx := Context{PC: 0x40, Addr: 0x1000}

	// Paper footnote 3: first prediction on the confidence+1 access.
	// Accesses 1..4 observe the value; access 5 must predict.
	for i := 1; i <= 4; i++ {
		if pred := p.Predict(ctx); pred.Hit {
			t.Fatalf("access %d predicted too early", i)
		}
		p.Update(ctx, 42, Prediction{})
	}
	pred := p.Predict(ctx)
	if !pred.Hit || pred.Value != 42 {
		t.Fatalf("access 5: pred = %+v, want hit 42", pred)
	}
}

func TestLVPConflictingValueResetsConfidence(t *testing.T) {
	p := newLVP(t, LVPConfig{Confidence: 4})
	ctx := Context{PC: 0x40}
	train(p, ctx, 42, 5)
	if !p.Predict(ctx).Hit {
		t.Fatal("should be trained")
	}
	// One access with a different value: Sec. IV-A "resets the
	// confidence value to 0 and leads to no prediction".
	p.Update(ctx, 7, Prediction{Hit: true, Value: 42})
	if p.Predict(ctx).Hit {
		t.Fatal("confidence should have reset")
	}
	e, ok := p.Entry(ctx)
	if !ok || e.Confidence != 1 || e.Value != 7 {
		t.Fatalf("entry = %+v, want conf 1 (one observation) value 7", e)
	}
}

func TestLVPIndexSchemes(t *testing.T) {
	// PC-based: same PC, different data address -> same entry.
	p := newLVP(t, LVPConfig{Confidence: 2, Scheme: ByPC})
	train(p, Context{PC: 0x40, Addr: 0x1000}, 5, 3)
	if !p.Predict(Context{PC: 0x40, Addr: 0x2000}).Hit {
		t.Error("PC-based predictor should ignore data address")
	}
	if p.Predict(Context{PC: 0x44, Addr: 0x1000}).Hit {
		t.Error("PC-based predictor should distinguish PCs")
	}

	// Data-address-based: same address, different PC -> same entry.
	d := newLVP(t, LVPConfig{Confidence: 2, Scheme: ByDataAddr})
	train(d, Context{PC: 0x40, Addr: 0x1000}, 5, 3)
	if !d.Predict(Context{PC: 0x90, Addr: 0x1000}).Hit {
		t.Error("addr-based predictor should ignore PC")
	}
	if d.Predict(Context{PC: 0x40, Addr: 0x1008}).Hit {
		t.Error("addr-based predictor should distinguish addresses")
	}
}

func TestLVPPIDIsolation(t *testing.T) {
	// With UsePID, cross-process same-PC accesses do not collide
	// (Sec. V-B: "using pid only increases difficulties for attacks").
	p := newLVP(t, LVPConfig{Confidence: 2, UsePID: true})
	train(p, Context{PC: 0x40, PID: 1}, 5, 3)
	if p.Predict(Context{PC: 0x40, PID: 2}).Hit {
		t.Error("pid-indexed predictor leaked across processes")
	}
	if !p.Predict(Context{PC: 0x40, PID: 1}).Hit {
		t.Error("same process should still predict")
	}
	// Without UsePID the collision is what the attacks exploit.
	q := newLVP(t, LVPConfig{Confidence: 2, UsePID: false})
	train(q, Context{PC: 0x40, PID: 1}, 5, 3)
	if !q.Predict(Context{PC: 0x40, PID: 2}).Hit {
		t.Error("no-pid predictor should collide across processes")
	}
}

func TestLVPUsefulnessEviction(t *testing.T) {
	p := newLVP(t, LVPConfig{Entries: 2, Confidence: 1})
	a := Context{PC: 0x10}
	b := Context{PC: 0x20}
	c := Context{PC: 0x30}
	// Make a useful (one correct prediction), b not.
	train(p, a, 1, 3)
	train(p, b, 2, 1)
	// Allocating c must evict b (smallest usefulness).
	train(p, c, 3, 1)
	if _, ok := p.Entry(b); ok {
		t.Error("least-useful entry not evicted")
	}
	if _, ok := p.Entry(a); !ok {
		t.Error("useful entry evicted")
	}
	if p.Evictions() != 1 {
		t.Errorf("evictions = %d", p.Evictions())
	}
}

// TestLVPResetKeepsEvictions: Reset empties the table but not the
// lifetime eviction count, which the metrics layer publishes as a
// delta; Reconfigure returns to a fresh predictor, count included.
func TestLVPResetKeepsEvictions(t *testing.T) {
	p := newLVP(t, LVPConfig{Entries: 1, Confidence: 2})
	ctx := Context{PC: 0x40}
	train(p, ctx, 9, 3) // two no-predictions, then a correct prediction
	train(p, Context{PC: 0x48}, 9, 1)
	p.Reset()
	if p.Len() != 0 || p.Evictions() != 1 || p.Predict(ctx).Hit {
		t.Errorf("after Reset: %d entries, %d evictions", p.Len(), p.Evictions())
	}
	train(p, ctx, 9, 1)
	train(p, Context{PC: 0x48}, 9, 1)
	if p.Evictions() != 2 {
		t.Errorf("evictions = %d, want 2", p.Evictions())
	}
	if err := p.Reconfigure(LVPConfig{Entries: 1, Confidence: 2}); err != nil || p.Len() != 0 || p.Evictions() != 0 {
		t.Errorf("after Reconfigure: %d entries, %d evictions, %v", p.Len(), p.Evictions(), err)
	}
}

func TestLVPConfigValidate(t *testing.T) {
	if _, err := NewLVP(LVPConfig{Entries: -1}); err == nil {
		t.Error("negative entries should fail")
	}
	p := newLVP(t, LVPConfig{})
	if cfg := p.cfg; cfg.Entries != 256 || cfg.Confidence != 4 || cfg.MaxConf != 8 || p.t.capacity != 256 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestVTAGETrainsAndPredicts(t *testing.T) {
	v, err := NewVTAGE(VTAGEConfig{Confidence: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := Context{PC: 0x80}
	train(v, ctx, 77, 4)
	if pred := v.Predict(ctx); !pred.Hit || pred.Value != 77 {
		t.Fatalf("pred = %+v, want hit 77", pred)
	}
	// Changing the value resets.
	v.Update(ctx, 5, Prediction{Hit: true, Value: 77})
	if v.Predict(ctx).Hit {
		t.Error("VTAGE should lose confidence after value change")
	}
}

func TestVTAGEAllocatesTaggedOnMispredict(t *testing.T) {
	v, err := NewVTAGE(VTAGEConfig{Confidence: 2, NumTagged: 2, TaggedEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx := Context{PC: 0x80}
	train(v, ctx, 1, 3)
	pred := v.Predict(ctx)
	if !pred.Hit {
		t.Fatal("not trained")
	}
	// Mispredict: allocation into a tagged component should occur.
	v.Update(ctx, 2, pred)
	// Train the new value; eventually predicts 2 again.
	train(v, ctx, 2, 4)
	if p := v.Predict(ctx); !p.Hit || p.Value != 2 {
		t.Errorf("after retrain pred = %+v, want hit 2", p)
	}
	v.Reset()
	if v.Predict(ctx).Hit {
		t.Error("reset did not clear VTAGE")
	}
}

func TestVTAGEConfigValidate(t *testing.T) {
	if _, err := NewVTAGE(VTAGEConfig{TagBits: 40}); err == nil {
		t.Error("oversized tag should fail")
	}
	if _, err := NewVTAGE(VTAGEConfig{NumTagged: -1}); err == nil {
		t.Error("negative components should fail")
	}
}

func TestOracleOnlyTargetPredicts(t *testing.T) {
	inner := newLVP(t, LVPConfig{Confidence: 2})
	o := NewOracle(inner, 0x40)
	target := Context{PC: 0x40}
	other := Context{PC: 0x50}
	train(o, target, 11, 3)
	train(o, other, 22, 5)
	if !o.Predict(target).Hit {
		t.Error("target PC should predict")
	}
	if o.Predict(other).Hit {
		t.Error("non-target PC must never predict")
	}
	// Non-target loads also do not train the inner predictor.
	if _, ok := inner.Entry(other); ok {
		t.Error("non-target load trained the oracle's inner predictor")
	}
}

func TestNonePredictor(t *testing.T) {
	n := NewNone()
	ctx := Context{PC: 0x40}
	train(n, ctx, 5, 10)
	if n.Predict(ctx).Hit {
		t.Error("None must never predict")
	}
	n.Reset()
	if n.Evictions() != 0 {
		t.Error("None evicted")
	}
	if n.Name() != "none" {
		t.Error("name")
	}
}

func TestATypeAlwaysPredicts(t *testing.T) {
	inner := newLVP(t, LVPConfig{Confidence: 4})
	a := NewAType(inner, 0xdead)
	ctx := Context{PC: 0x40}

	// Cold: falls back to the fixed value.
	if p := a.Predict(ctx); !p.Hit || p.Value != 0xdead {
		t.Errorf("cold pred = %+v, want fixed", p)
	}
	// One observation: falls back to the stored last value even though
	// confidence is below threshold.
	a.Update(ctx, 33, Prediction{})
	if p := a.Predict(ctx); !p.Hit || p.Value != 33 {
		t.Errorf("low-confidence pred = %+v, want last value 33", p)
	}
	// Fully trained: inner prediction flows through.
	train(a, ctx, 33, 4)
	if p := a.Predict(ctx); !p.Hit || p.Value != 33 {
		t.Errorf("trained pred = %+v", p)
	}
	if a.Name() != "lvp+A" {
		t.Error("name")
	}
	a.Reset()
	if p := a.Predict(ctx); p.Value != 0xdead {
		t.Error("reset did not clear inner state")
	}
}

func TestRTypeWindowDistribution(t *testing.T) {
	inner := newLVP(t, LVPConfig{Confidence: 1})
	const window = 5
	r := NewRType(inner, window, rand.New(rand.NewSource(7)))
	ctx := Context{PC: 0x40}
	train(r, ctx, 100, 2)

	const trials = 5000
	correct := 0
	seen := map[uint64]bool{}
	for i := 0; i < trials; i++ {
		p := r.Predict(ctx)
		if !p.Hit {
			t.Fatal("trained R-type should still predict")
		}
		seen[p.Value] = true
		if p.Value == 100 {
			correct++
		}
		// Keep the entry trained on 100 without counting these updates
		// as predictions.
		inner.Update(ctx, 100, Prediction{})
	}
	frac := float64(correct) / trials
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("P(correct) = %v, want ~1/%d", frac, window)
	}
	// All values within the window [100-2, 100+2] must appear.
	for v := uint64(98); v <= 102; v++ {
		if !seen[v] {
			t.Errorf("window value %d never predicted", v)
		}
	}
	if len(seen) != window {
		t.Errorf("distinct predictions = %d, want %d", len(seen), window)
	}
}

func TestRTypeWindowOneIsTransparent(t *testing.T) {
	inner := newLVP(t, LVPConfig{Confidence: 1})
	r := NewRType(inner, 1, rand.New(rand.NewSource(1)))
	ctx := Context{PC: 0x40}
	train(r, ctx, 55, 2)
	for i := 0; i < 20; i++ {
		if p := r.Predict(ctx); !p.Hit || p.Value != 55 {
			t.Fatalf("window-1 perturbed: %+v", p)
		}
	}
	if r.Name() != "lvp+R" {
		t.Error("name")
	}
}

func TestRTypeNoPredictionPassesThrough(t *testing.T) {
	inner := newLVP(t, LVPConfig{Confidence: 4})
	r := NewRType(inner, 9, rand.New(rand.NewSource(1)))
	if r.Predict(Context{PC: 0x40}).Hit {
		t.Error("untrained R-type must not predict")
	}
	r.Update(Context{PC: 0x40}, 3, Prediction{})
	r.Reset()
	if inner.Len() != 0 {
		t.Error("reset did not reach the inner predictor")
	}
}

func TestDefenseStacking(t *testing.T) {
	// Sec. VI-B: Test+Hit is prevented by combining A-type and R-type.
	inner := newLVP(t, LVPConfig{Confidence: 4})
	combined := NewAType(NewRType(inner, 5, rand.New(rand.NewSource(3))), 0)
	ctx := Context{PC: 0x40}
	// Even cold, the stack always predicts (A on the outside).
	if !combined.Predict(ctx).Hit {
		t.Error("A+R stack should always predict")
	}
	train(combined, ctx, 10, 6)
	// Predictions remain hits but values are perturbed by R.
	diff := false
	for i := 0; i < 50; i++ {
		p := combined.Predict(ctx)
		if !p.Hit {
			t.Fatal("stack stopped predicting")
		}
		if p.Value != 10 {
			diff = true
		}
		inner.Update(ctx, 10, Prediction{})
	}
	if !diff {
		t.Error("R-type inside the stack never perturbed the value")
	}
}

// Property: LVP never predicts before the confidence-th repeat of a
// value, for any confidence threshold in [1,8].
func TestPropertyLVPNeverPredictsEarly(t *testing.T) {
	f := func(confSeed uint8, pc uint64, v uint64) bool {
		conf := int(confSeed%8) + 1
		p, err := NewLVP(LVPConfig{Confidence: conf})
		if err != nil {
			return false
		}
		ctx := Context{PC: pc}
		for i := 0; i < conf; i++ {
			if p.Predict(ctx).Hit {
				return false
			}
			p.Update(ctx, v, Prediction{})
		}
		pred := p.Predict(ctx)
		return pred.Hit && pred.Value == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the LVP table never exceeds its configured capacity.
func TestPropertyLVPBoundedCapacity(t *testing.T) {
	f := func(pcs []uint64) bool {
		p, err := NewLVP(LVPConfig{Entries: 8, Confidence: 1})
		if err != nil {
			return false
		}
		for _, pc := range pcs {
			p.Update(Context{PC: pc}, pc, Prediction{})
		}
		return p.Len() <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: R-type predictions always land within the window.
func TestPropertyRTypeWithinWindow(t *testing.T) {
	f := func(seed int64, wSeed uint8) bool {
		w := int(wSeed%9) + 1
		inner, err := NewLVP(LVPConfig{Confidence: 1})
		if err != nil {
			return false
		}
		r := NewRType(inner, w, rand.New(rand.NewSource(seed)))
		ctx := Context{PC: 0x40}
		inner.Update(ctx, 1000, Prediction{})
		inner.Update(ctx, 1000, Prediction{})
		for i := 0; i < 30; i++ {
			p := r.Predict(ctx)
			if !p.Hit {
				return false
			}
			lo := uint64(1000 - (w-1)/2)
			hi := uint64(1000 + w/2)
			if p.Value < lo || p.Value > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPredictorInterfaceSurfaces(t *testing.T) {
	// Names, resets and last-value plumbing across every
	// implementation and wrapper.
	lvp := newLVP(t, LVPConfig{Confidence: 2})
	vt, err := NewVTAGE(VTAGEConfig{Confidence: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStride(StrideConfig{Confidence: 2})
	if err != nil {
		t.Fatal(err)
	}
	fcm, err := NewFCM(FCMConfig{Confidence: 2})
	if err != nil {
		t.Fatal(err)
	}
	or := NewOracle(newLVP(t, LVPConfig{Confidence: 2}), 0x40)
	names := map[Predictor]string{
		lvp: "lvp", vt: "vtage", st: "stride", fcm: "fcm", or: "oracle-lvp",
	}
	ctx := Context{PC: 0x40, Addr: 0x900}
	for p, want := range names {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
		train(p, ctx, 9, 4)
		if !p.Predict(ctx).Hit {
			t.Errorf("%s: no prediction after training", want)
		}
		p.Reset()
		if p.Predict(ctx).Hit {
			t.Errorf("%s: reset did not clear the table", want)
		}
	}

	// VTAGE exposes last values for the A-type wrapper.
	train(vt, ctx, 7, 3)
	if v, ok := vt.LastValue(ctx); !ok || v != 7 {
		t.Errorf("VTAGE LastValue = %d (%v)", v, ok)
	}
	// NewATypeFixed always predicts the fixed value.
	af := NewATypeFixed(newLVP(t, LVPConfig{Confidence: 4}), 0x5)
	if p := af.Predict(ctx); !p.Hit || p.Value != 0x5 {
		t.Errorf("A-fixed pred = %+v", p)
	}
	af.Update(ctx, 9, Prediction{Hit: true, Value: 0x5})
	if _, ok := af.LastValue(ctx); !ok {
		t.Error("A-type should forward LastValue from the wrapped LVP")
	}
	// An R-type over a non-LastValuer forwards a miss.
	r := NewRType(NewNone(), 3, rand.New(rand.NewSource(1)))
	if _, ok := r.LastValue(ctx); ok {
		t.Error("R-type over None should not expose a last value")
	}
	// Oracle update path for hits and misses on a target PC: the
	// correct one credits the inner entry, the wrong one takes it back.
	inner := newLVP(t, LVPConfig{Confidence: 1})
	or2 := NewOracle(inner, 0x40)
	or2.Update(ctx, 4, Prediction{})
	or2.Update(ctx, 4, Prediction{Hit: true, Value: 4})
	if e, _ := inner.Entry(ctx); e.Usefulness != 1 {
		t.Errorf("after a correct prediction: %+v", e)
	}
	or2.Update(ctx, 5, Prediction{Hit: true, Value: 4})
	if e, _ := inner.Entry(ctx); e != (EntryState{Confidence: 1, Value: 5}) {
		t.Errorf("after a wrong prediction: %+v", e)
	}
}

func TestIndexSchemeStrings(t *testing.T) {
	if ByPC.String() != "pc" || ByDataAddr.String() != "data-addr" || ByPhysAddr.String() != "phys-addr" {
		t.Error("scheme names wrong")
	}
	if IndexScheme(9).String() != "?" {
		t.Error("unknown scheme name")
	}
	// Phys-addr keys distinguish physical addresses.
	p := newLVP(t, LVPConfig{Confidence: 1, Scheme: ByPhysAddr})
	train(p, Context{PC: 1, PhysAddr: 0x100}, 7, 2)
	if p.Predict(Context{PC: 1, PhysAddr: 0x200}).Hit {
		t.Error("different physical addresses should not collide")
	}
	if !p.Predict(Context{PC: 2, PhysAddr: 0x100}).Hit {
		t.Error("same physical address should collide across PCs")
	}
}

// TestVTAGEProbabilisticConfidence: with FPC counters, confidence
// builds only stochastically, so training takes more same-value
// observations on average — but a trained entry still predicts.
func TestVTAGEProbabilisticConfidence(t *testing.T) {
	v, err := NewVTAGE(VTAGEConfig{Confidence: 3, FPC: 4, FPCSeed: 0})
	if err != nil {
		t.Fatal(err)
	}
	ctx := Context{PC: 0x80}
	// Deterministic training would predict after 4 accesses; FPC=4
	// needs roughly 4x as many. Train generously and check it arrives.
	for i := 0; i < 60; i++ {
		v.Update(ctx, 9, v.Predict(ctx))
	}
	if pred := v.Predict(ctx); !pred.Hit || pred.Value != 9 {
		t.Fatalf("FPC-trained pred = %+v, want hit 9", pred)
	}
	// And it should NOT be confident after only confidence+1 accesses.
	v2, err := NewVTAGE(VTAGEConfig{Confidence: 3, FPC: 4, FPCSeed: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		v2.Update(ctx, 9, Prediction{})
	}
	if v2.Predict(ctx).Hit {
		t.Error("FPC confidence built as fast as deterministic counters")
	}
}
