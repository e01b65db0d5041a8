package predictor

import "testing"

func newFCM(t *testing.T, cfg FCMConfig) *FCM {
	t.Helper()
	p, err := NewFCM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFCMConstantSequence(t *testing.T) {
	p := newFCM(t, FCMConfig{Confidence: 3, HistoryLen: 2})
	ctx := Context{PC: 0x40}
	// Constant values: the (42,42) context sees 42 repeatedly.
	for i := 0; i < 6; i++ {
		p.Update(ctx, 42, p.Predict(ctx))
	}
	pred := p.Predict(ctx)
	if !pred.Hit || pred.Value != 42 {
		t.Fatalf("pred = %+v, want hit 42", pred)
	}
}

func TestFCMLearnsAlternatingPattern(t *testing.T) {
	// The sequence A,B,A,B,... defeats an LVP (confidence never builds)
	// but the FCM's context (A,B) -> A, (B,A) -> B converges.
	p := newFCM(t, FCMConfig{Confidence: 2, HistoryLen: 2})
	ctx := Context{PC: 0x40}
	seq := []uint64{7, 9, 7, 9, 7, 9, 7, 9, 7, 9}
	correct := 0
	for _, v := range seq {
		pred := p.Predict(ctx)
		if pred.Hit && pred.Value == v {
			correct++
		}
		p.Update(ctx, v, pred)
	}
	if correct == 0 {
		t.Error("FCM never learned the alternating pattern")
	}
	// After training, the next prediction follows the pattern.
	pred := p.Predict(ctx)
	if !pred.Hit || pred.Value != 7 {
		t.Errorf("post-training pred = %+v, want hit 7", pred)
	}

	// An LVP never predicts this sequence.
	lvp := newLVP(t, LVPConfig{Confidence: 2})
	for _, v := range seq {
		pred := lvp.Predict(ctx)
		if pred.Hit {
			t.Fatal("LVP should never gain confidence on an alternating sequence")
		}
		lvp.Update(ctx, v, pred)
	}
}

func TestFCMNoPredictionWithoutFullHistory(t *testing.T) {
	p := newFCM(t, FCMConfig{Confidence: 1, HistoryLen: 3})
	ctx := Context{PC: 0x40}
	p.Update(ctx, 1, Prediction{})
	p.Update(ctx, 2, Prediction{})
	if p.Predict(ctx).Hit {
		t.Error("predicted with incomplete history")
	}
}

func TestFCMEvictionAndReset(t *testing.T) {
	p := newFCM(t, FCMConfig{Entries: 2, VPTEntries: 2, Confidence: 1, HistoryLen: 1})
	for i := uint64(0); i < 4; i++ {
		ctx := Context{PC: 0x40 + i*4}
		p.Update(ctx, i, Prediction{})
		p.Update(ctx, i, Prediction{})
	}
	ev := p.Evictions()
	if ev == 0 {
		t.Error("expected evictions with tiny tables")
	}
	p.Reset()
	if len(p.vht.rows)+len(p.vpt.rows) != 0 || p.Evictions() != ev {
		t.Error("reset must empty both levels and keep the eviction count")
	}
	if p.Name() != "fcm" {
		t.Error("name")
	}
}

func TestFCMValidation(t *testing.T) {
	if _, err := NewFCM(FCMConfig{HistoryLen: 99}); err == nil {
		t.Error("oversized history should fail")
	}
	if _, err := NewFCM(FCMConfig{Entries: -1}); err == nil {
		t.Error("negative entries should fail")
	}
}
