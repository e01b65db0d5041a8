package predictor

import "math/rand"

// This file implements the predictor-side defenses of Sec. VI-A.
//
//   - A-type ("always predict a value"): predict regardless of whether
//     the confidence level is reached, using the stored history value
//     or a fixed value. Removes the no-prediction vs prediction timing
//     contrast exploited by Spill Over and (partly) Test+Hit/Train+Hit.
//   - R-type ("randomly predict a value"): predict a value drawn
//     uniformly from a window of size S around the stored value, so
//     the probability of predicting correctly is 1/S. Randomizes the
//     correct vs incorrect contrast exploited by Train+Test, Fill Up
//     and Modify+Test.
//   - D-type ("delay side-effects") is not a predictor transformation:
//     it delays speculative cache fills until verification and is
//     implemented in the pipeline (internal/cpu, EffectsPolicy),
//     defeating persistent-channel variants only.

// LastValuer is implemented by predictors that can expose their stored
// value regardless of confidence (LVP and VTAGE do); the A-type
// defense needs it.
type LastValuer interface {
	LastValue(ctx Context) (uint64, bool)
}

// AType wraps an inner predictor so a prediction is always produced.
// The paper describes two flavors (Sec. VI-A): predict "based on a
// history value" (the inner prediction if confident, else the stored
// last value, else Fixed) or "based on a fixed value" (always Fixed,
// which also removes the correct-vs-wrong contrast at the cost of
// predicting usefully almost never).
type AType struct {
	inner Predictor
	lv    LastValuer // nil if inner does not expose last values
	Fixed uint64
	// FixedAlways selects the fixed-value flavor.
	FixedAlways bool
}

// NewAType builds the history-value always-predict wrapper around
// inner.
func NewAType(inner Predictor, fixed uint64) *AType {
	lv, _ := inner.(LastValuer)
	return &AType{inner: inner, lv: lv, Fixed: fixed}
}

// NewATypeFixed builds the fixed-value flavor.
func NewATypeFixed(inner Predictor, fixed uint64) *AType {
	a := NewAType(inner, fixed)
	a.FixedAlways = true
	return a
}

// Name implements Predictor.
func (a *AType) Name() string { return a.inner.Name() + "+A" }

// Predict implements Predictor: always hits.
func (a *AType) Predict(ctx Context) Prediction {
	if a.FixedAlways {
		a.inner.Predict(ctx) // the lookup still stamps the inner row
		return Prediction{Hit: true, Value: a.Fixed}
	}
	if p := a.inner.Predict(ctx); p.Hit {
		return p
	}
	if a.lv != nil {
		if v, ok := a.lv.LastValue(ctx); ok {
			return Prediction{Hit: true, Value: v}
		}
	}
	return Prediction{Hit: true, Value: a.Fixed}
}

// Update implements Predictor.
func (a *AType) Update(ctx Context, actual uint64, pred Prediction) {
	a.inner.Update(ctx, actual, pred)
}

// Evictions implements Predictor.
func (a *AType) Evictions() uint64 { return a.inner.Evictions() }

// Reset implements Predictor.
func (a *AType) Reset() { a.inner.Reset() }

// LastValue forwards to the wrapped predictor so defense wrappers
// compose (an R-type outside an A-type, or A outside A).
func (a *AType) LastValue(ctx Context) (uint64, bool) {
	if a.lv == nil {
		return 0, false
	}
	return a.lv.LastValue(ctx)
}

// RType wraps an inner predictor so every produced prediction is
// perturbed to a uniformly random value in a window of size Window
// centered on the inner value; P(correct) = 1/Window. Window <= 1
// disables the perturbation.
type RType struct {
	inner  Predictor
	Window int
	rng    *rand.Rand
}

// NewRType builds the random-window wrapper. rng must be non-nil so
// experiments stay reproducible under a caller-chosen seed.
func NewRType(inner Predictor, window int, rng *rand.Rand) *RType {
	return &RType{inner: inner, Window: window, rng: rng}
}

// Name implements Predictor.
func (r *RType) Name() string { return r.inner.Name() + "+R" }

// Predict implements Predictor.
func (r *RType) Predict(ctx Context) Prediction {
	p := r.inner.Predict(ctx)
	if p.Hit && r.Window > 1 {
		// Offset in [-(W-1)/2, W/2]; exactly one of the W offsets is 0,
		// so the stored (presumed-correct) value survives with
		// probability 1/W.
		off := int64(r.rng.Intn(r.Window)) - int64((r.Window-1)/2)
		p.Value += uint64(off)
	}
	return p
}

// Update implements Predictor.
func (r *RType) Update(ctx Context, actual uint64, pred Prediction) {
	r.inner.Update(ctx, actual, pred)
}

// Evictions implements Predictor.
func (r *RType) Evictions() uint64 { return r.inner.Evictions() }

// Reset implements Predictor.
func (r *RType) Reset() { r.inner.Reset() }

// LastValue forwards to the wrapped predictor so defense wrappers
// compose.
func (r *RType) LastValue(ctx Context) (uint64, bool) {
	if lv, ok := r.inner.(LastValuer); ok {
		return lv.LastValue(ctx)
	}
	return 0, false
}
