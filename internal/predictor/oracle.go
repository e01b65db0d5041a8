package predictor

// Oracle restricts an inner predictor to a set of target load PCs.
// The paper's experimental setup uses an "oracle VTAGE" that "makes
// predictions only for the target load instruction to maximize the
// attacker's advantage" (Sec. IV-C): all other loads neither consume
// table space nor add prediction noise.
type Oracle struct {
	inner   Predictor
	targets map[uint64]bool
}

// NewOracle wraps inner, predicting and training only for loads whose
// PC is in targetPCs.
func NewOracle(inner Predictor, targetPCs ...uint64) *Oracle {
	t := make(map[uint64]bool, len(targetPCs))
	for _, pc := range targetPCs {
		t[pc] = true
	}
	return &Oracle{inner: inner, targets: t}
}

// Name implements Predictor.
func (o *Oracle) Name() string { return "oracle-" + o.inner.Name() }

// Predict implements Predictor: non-target loads never predict.
func (o *Oracle) Predict(ctx Context) Prediction {
	if !o.targets[ctx.PC] {
		return Prediction{}
	}
	return o.inner.Predict(ctx)
}

// Update implements Predictor: non-target loads do not train.
func (o *Oracle) Update(ctx Context, actual uint64, pred Prediction) {
	if o.targets[ctx.PC] {
		o.inner.Update(ctx, actual, pred)
	}
}

// Evictions implements Predictor.
func (o *Oracle) Evictions() uint64 { return o.inner.Evictions() }

// Reset implements Predictor.
func (o *Oracle) Reset() { o.inner.Reset() }

// None is the "no VP" baseline: it never predicts. The paper's control
// experiments (Figs. 5 and 8, "no VP" panels) run with this predictor.
type None struct{}

// NewNone returns the never-predicting baseline.
func NewNone() *None { return &None{} }

// Name implements Predictor.
func (n *None) Name() string { return "none" }

// Predict implements Predictor: never predicts.
func (n *None) Predict(Context) Prediction { return Prediction{} }

// Update implements Predictor: no state to train.
func (n *None) Update(Context, uint64, Prediction) {}

// Evictions implements Predictor: None keeps no table to evict from.
func (n *None) Evictions() uint64 { return 0 }

// Reset implements Predictor: no state to clear.
func (n *None) Reset() {}
