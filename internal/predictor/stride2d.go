package predictor

import "fmt"

// Stride2DConfig parameterizes the 2-delta stride predictor.
type Stride2DConfig struct {
	Entries    int         // table capacity; 0 means 256
	Confidence int         // consecutive correct strides required; 0 means 4
	MaxConf    int         // saturation; 0 means 2*Confidence
	Scheme     IndexScheme // what indexes the table
	UsePID     bool
}

func (c *Stride2DConfig) setDefaults() {
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
func (c Stride2DConfig) Validate() error {
	if c.Entries < 0 || c.Confidence < 0 || c.MaxConf < 0 {
		return fmt.Errorf("predictor: negative 2-delta parameter: %+v", c)
	}
	return nil
}

type stride2dEntry struct {
	last       uint64
	stride1    uint64 // most recently observed delta
	stride2    uint64 // predicted delta: promoted only when seen twice
	confidence int    // consecutive observations matching stride2
	usefulness int
	lastTouch  uint64
	obs        int // observation count (0: empty, 1: base only, 2+: deltas)
}

// Stride2D is the 2-delta stride predictor [Eickemeyer & Vassiliadis
// 1993; used in the value-prediction literature the paper cites]: the
// predicted stride is updated only after the *same new* stride has been
// observed twice in a row, so a single irregular access does not
// perturb a well-established pattern. For the paper's attacks the
// relevant consequence is asymmetric: a constant secret is the
// zero-stride special case and trains exactly as on the LVP, but the
// Modify+Test single-access perturbation that resets an LVP entry
// leaves the 2-delta predicted stride intact — the attacker needs two
// conflicting accesses to destroy training.
type Stride2D struct {
	cfg   Stride2DConfig
	table map[key]*stride2dEntry
	tick  uint64
	stats Stats
}

// NewStride2D builds a 2-delta stride predictor from cfg.
func NewStride2D(cfg Stride2DConfig) (*Stride2D, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	return &Stride2D{cfg: cfg, table: make(map[key]*stride2dEntry)}, nil
}

// Name implements Predictor.
func (p *Stride2D) Name() string { return "stride-2d" }

// Config returns the post-default configuration.
func (p *Stride2D) Config() Stride2DConfig { return p.cfg }

// Predict implements Predictor. As with the plain stride predictor,
// the first access only establishes a base value, so the threshold is
// Confidence-1 stride repeats: the confidence+1-th access produces the
// first prediction (the paper's footnote 3 convention).
func (p *Stride2D) Predict(ctx Context) Prediction {
	p.stats.Lookups++
	k := makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)
	e, ok := p.table[k]
	need := p.cfg.Confidence - 1
	if need < 1 {
		need = 1
	}
	if !ok || e.obs < 2 || e.confidence < need {
		p.stats.NoPredictions++
		return Prediction{}
	}
	p.tick++
	e.lastTouch = p.tick
	p.stats.Predictions++
	return Prediction{Hit: true, Value: e.last + e.stride2}
}

// Update implements Predictor. The observed delta always lands in
// stride1; it is promoted to the predicted stride2 only when it matches
// the previous stride1 — the defining 2-delta hysteresis.
func (p *Stride2D) Update(ctx Context, actual uint64, pred Prediction) {
	k := makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)
	p.tick++
	e, ok := p.table[k]
	if !ok {
		e = p.allocate(k)
		e.last = actual
		e.lastTouch = p.tick
		e.obs = 1
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
	s := actual - e.last
	switch {
	case e.obs == 1:
		// First delta: seed both strides so a constant or regular
		// stream starts counting confidence immediately.
		e.stride1 = s
		e.stride2 = s
		e.confidence = 1
	case s == e.stride2:
		e.stride1 = s
		if e.confidence < p.cfg.MaxConf {
			e.confidence++
		}
	case s == e.stride1:
		// The same new delta twice in a row: promote it.
		e.stride2 = s
		e.confidence = 1
	default:
		// A one-off irregular delta: remember it in stride1 but keep
		// predicting with stride2. Confidence drops (the prediction
		// just failed) but the established pattern survives.
		e.stride1 = s
		if e.confidence > 0 {
			e.confidence--
		}
	}
	e.obs++
	e.last = actual
}

func (p *Stride2D) allocate(k key) *stride2dEntry {
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
	e := &stride2dEntry{}
	p.table[k] = e
	return e
}

// Stats implements Predictor.
func (p *Stride2D) Stats() Stats { return p.stats }

// Reset implements Predictor.
func (p *Stride2D) Reset() {
	p.table = make(map[key]*stride2dEntry)
	p.stats = Stats{}
	p.tick = 0
}

// LastValue exposes the next predicted value regardless of confidence
// (for the A-type defense wrapper).
func (p *Stride2D) LastValue(ctx Context) (uint64, bool) {
	k := makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)
	e, ok := p.table[k]
	if !ok {
		return 0, false
	}
	return e.last + e.stride2, true
}

// Len returns the current number of table entries.
func (p *Stride2D) Len() int { return len(p.table) }
