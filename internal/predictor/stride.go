package predictor

import "fmt"

// StrideConfig parameterizes the stride predictor.
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

type strideEntry struct {
	last       uint64
	stride     uint64 // two's-complement delta
	confidence int    // consecutive observations of the same stride
	usefulness int
	lastTouch  uint64
	seen       bool // at least two observations (stride meaningful)
}

// Stride is a stride value predictor (e.g. the address-prediction
// family of Sheikh et al. cited by the paper): it predicts
// last + stride once the stride has been stable for a confidence
// number of accesses. Constant values are the zero-stride special
// case, so every attack that trains a constant secret works against it
// exactly as against the LVP.
type Stride struct {
	cfg   StrideConfig
	table map[key]*strideEntry
	tick  uint64
	stats Stats
}

// NewStride builds a stride predictor from cfg.
func NewStride(cfg StrideConfig) (*Stride, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	return &Stride{cfg: cfg, table: make(map[key]*strideEntry)}, nil
}

// Name implements Predictor.
func (p *Stride) Name() string { return "stride" }

// Predict implements Predictor. The first access can only establish a
// base value, so a stride is observed n-1 times after n accesses; the
// threshold is therefore Confidence-1 stride repeats, keeping the
// paper's convention that the confidence+1-th access produces the
// first prediction.
func (p *Stride) Predict(ctx Context) Prediction {
	p.stats.Lookups++
	k := makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)
	e, ok := p.table[k]
	need := p.cfg.Confidence - 1
	if need < 1 {
		need = 1
	}
	if !ok || !e.seen || e.confidence < need {
		p.stats.NoPredictions++
		return Prediction{}
	}
	p.tick++
	e.lastTouch = p.tick
	p.stats.Predictions++
	return Prediction{Hit: true, Value: e.last + e.stride}
}

// Update implements Predictor.
func (p *Stride) Update(ctx Context, actual uint64, pred Prediction) {
	k := makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)
	p.tick++
	e, ok := p.table[k]
	if !ok {
		e = p.allocate(k)
		e.last = actual
		e.lastTouch = p.tick
		return
	}
	e.lastTouch = p.tick
	if pred.Hit {
		if pred.Value == actual {
			p.stats.Correct++
			e.usefulness++
		} else {
			p.stats.Mispredicts++
			if e.usefulness > 0 {
				e.usefulness--
			}
		}
	}
	stride := actual - e.last
	if e.seen && stride == e.stride {
		if e.confidence < p.cfg.MaxConf {
			e.confidence++
		}
	} else {
		e.stride = stride
		e.confidence = 1
	}
	e.seen = true
	e.last = actual
}

func (p *Stride) allocate(k key) *strideEntry {
	if len(p.table) >= p.cfg.Entries {
		var victim key
		best := -1
		var bestTouch uint64
		for vk, ve := range p.table {
			if best < 0 || ve.usefulness < best ||
				(ve.usefulness == best && ve.lastTouch < bestTouch) {
				best = ve.usefulness
				bestTouch = ve.lastTouch
				victim = vk
			}
		}
		delete(p.table, victim)
		p.stats.Evictions++
	}
	e := &strideEntry{}
	p.table[k] = e
	return e
}

// Stats implements Predictor.
func (p *Stride) Stats() Stats { return p.stats }

// Reset implements Predictor.
func (p *Stride) Reset() {
	p.table = make(map[key]*strideEntry)
	p.stats = Stats{}
	p.tick = 0
}

// LastValue exposes the next predicted value regardless of confidence
// (for the A-type defense wrapper).
func (p *Stride) LastValue(ctx Context) (uint64, bool) {
	k := makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)
	e, ok := p.table[k]
	if !ok {
		return 0, false
	}
	return e.last + e.stride, true
}

// Len returns the current number of table entries.
func (p *Stride) Len() int { return len(p.table) }
