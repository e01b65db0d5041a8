package predictor

import "fmt"

// StrideConfig parameterizes the stride and 2-delta stride predictors.
type StrideConfig struct {
	Entries    int         // table capacity; 0 means 256
	Confidence int         // consecutive stable strides required; 0 means 4
	MaxConf    int         // saturation; 0 means 2*Confidence
	Scheme     IndexScheme // what indexes the table
	UsePID     bool
}

func (c *StrideConfig) setDefaults() {
	if c.Entries == 0 {
		c.Entries = 256
	}
	if c.Confidence == 0 {
		c.Confidence = 4
	}
	if c.MaxConf == 0 {
		c.MaxConf = 2 * c.Confidence
	}
}

// Validate reports configuration errors.
func (c StrideConfig) Validate() error {
	if c.Entries < 0 || c.Confidence < 0 || c.MaxConf < 0 {
		return fmt.Errorf("predictor: negative stride parameter: %+v", c)
	}
	return nil
}

// need is the stride repeats a prediction requires. The first access
// can only establish a base value, so a stride is observed n-1 times
// after n accesses; the threshold is therefore Confidence-1 repeats,
// keeping the paper's convention that the confidence+1-th access
// produces the first prediction (footnote 3).
func (c StrideConfig) need() int { return max(c.Confidence-1, 1) }

// strideEntry is a stride-family row's payload. The plain stride
// predictor uses only stride; the 2-delta predictor also keeps the
// most recent delta in candidate until it repeats.
type strideEntry struct {
	last       uint64
	stride     uint64 // predicted delta (two's complement)
	candidate  uint64 // 2-delta: most recently observed delta
	confidence int    // consecutive observations of the predicted stride
	obs        int    // observations: 1 is the base value only
}

// strideTable is what both stride families share: the table, the
// forecast last + stride, and the update around the entry transition,
// which twoDelta selects.
type strideTable struct {
	cfg      StrideConfig
	t        table[key, strideEntry]
	twoDelta bool
}

func newStrideTable(cfg StrideConfig, twoDelta bool) (strideTable, error) {
	if err := cfg.Validate(); err != nil {
		return strideTable{}, err
	}
	cfg.setDefaults()
	return strideTable{cfg: cfg, t: newTable[key, strideEntry](cfg.Entries), twoDelta: twoDelta}, nil
}

// Predict implements Predictor: last + stride once the stride has
// repeated need() times.
func (p *strideTable) Predict(ctx Context) Prediction {
	r, ok := p.t.rows[makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)]
	if !ok || r.e.obs < 2 || r.e.confidence < p.cfg.need() {
		return Prediction{}
	}
	p.t.touch(r)
	return Prediction{Hit: true, Value: r.e.last + r.e.stride}
}

// Update implements Predictor. A new row only records its base value;
// a known one credits a verified prediction and learns the observed
// delta through its family's transition.
func (p *strideTable) Update(ctx Context, actual uint64, pred Prediction) {
	k := makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)
	r, ok := p.t.rows[k]
	if !ok {
		r = p.t.insert(k)
		p.t.touch(r)
		r.e.last, r.e.obs = actual, 1
		return
	}
	p.t.touch(r)
	if pred.Hit {
		r.credit(pred.Value == actual)
	}
	e := &r.e
	if p.twoDelta {
		e.learnTwoDelta(actual-e.last, p.cfg.MaxConf)
	} else {
		e.learn(actual-e.last, p.cfg.MaxConf)
	}
	e.obs++
	e.last = actual
}

// Evictions implements Predictor.
func (p *strideTable) Evictions() uint64 { return p.t.evictions }

// Reset implements Predictor.
func (p *strideTable) Reset() { p.t.reset() }

// LastValue exposes the next predicted value regardless of confidence
// (for the A-type defense wrapper).
func (p *strideTable) LastValue(ctx Context) (uint64, bool) {
	r, ok := p.t.rows[makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)]
	if !ok {
		return 0, false
	}
	return r.e.last + r.e.stride, true
}

// Len returns the current number of table entries.
func (p *strideTable) Len() int { return len(p.t.rows) }

// Stride is a stride value predictor (e.g. the address-prediction
// family of Sheikh et al. cited by the paper): it predicts
// last + stride once the stride has been stable for a confidence
// number of accesses. Constant values are the zero-stride special
// case, so every attack that trains a constant secret works against it
// exactly as against the LVP.
type Stride struct{ strideTable }

// NewStride builds a stride predictor from cfg.
func NewStride(cfg StrideConfig) (*Stride, error) {
	st, err := newStrideTable(cfg, false)
	if err != nil {
		return nil, err
	}
	return &Stride{st}, nil
}

// Name implements Predictor.
func (p *Stride) Name() string { return "stride" }

// learn is the stride transition on delta s: a repeated delta gains
// confidence, any other delta becomes the stride at confidence one.
func (e *strideEntry) learn(s uint64, maxConf int) {
	if e.obs >= 2 && s == e.stride {
		if e.confidence < maxConf {
			e.confidence++
		}
	} else {
		e.stride = s
		e.confidence = 1
	}
}
