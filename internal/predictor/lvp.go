package predictor

import (
	"fmt"
	"math/rand"
)

// LVPConfig parameterizes a last value predictor.
type LVPConfig struct {
	Entries    int         // table capacity; 0 means the default 256
	Confidence int         // paper's "confidence number"; 0 means the default 4
	Scheme     IndexScheme // what indexes the table
	UsePID     bool        // include the pid in the index (Sec. V-B)
	MaxConf    int         // confidence saturation; 0 means 2*Confidence

	// FPC, when > 1, makes confidence increments probabilistic with
	// rate 1/FPC (forward probabilistic counters, as in the VTAGE
	// paper). Zero disables.
	FPC     int
	FPCSeed int64
}

func (c *LVPConfig) setDefaults() {
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
func (c LVPConfig) Validate() error {
	if c.Entries < 0 || c.Confidence < 0 || c.MaxConf < 0 {
		return fmt.Errorf("predictor: negative LVP parameter: %+v", c)
	}
	return nil
}

// lvpEntry is an LVP row's payload in the Fig. 1 table: the confidence
// and the value (the table keeps index and usefulness).
type lvpEntry struct {
	confidence int
	value      uint64
}

// LVP is the baseline (non-secure) last value predictor [Lipasti,
// Wilkerson & Shen 1996] the paper evaluates: it predicts that a load
// will return the same value it returned last time, once that value
// has repeated a confidence number of times.
type LVP struct {
	cfg LVPConfig
	t   table[key, lvpEntry]
	rng *rand.Rand
}

// NewLVP builds an LVP from cfg (zero fields take defaults).
func NewLVP(cfg LVPConfig) (*LVP, error) {
	p := &LVP{t: newTable[key, lvpEntry](0)}
	if err := p.Reconfigure(cfg); err != nil {
		return nil, err
	}
	return p, nil
}

// Name implements Predictor.
func (p *LVP) Name() string { return "lvp" }

// Predict implements Predictor: a prediction is produced only when the
// entry exists and its confidence has reached the threshold.
func (p *LVP) Predict(ctx Context) Prediction {
	r, ok := p.t.rows[makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)]
	if !ok || r.e.confidence < p.cfg.Confidence {
		return Prediction{}
	}
	p.t.touch(r)
	return Prediction{Hit: true, Value: r.e.value}
}

// Update implements Predictor. On a correct prediction the confidence
// and usefulness are increased; a misprediction (or a value change
// observed without a prediction) resets confidence to zero and stores
// the new value (Sec. IV-A: one conflicting access "resets the
// confidence value to 0 and leads to no prediction"). A verified
// prediction credits the entry even when this update allocates it: the
// A-type wrapper predicts for loads the table does not hold.
func (p *LVP) Update(ctx Context, actual uint64, pred Prediction) {
	k := makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)
	r, ok := p.t.rows[k]
	if !ok {
		r = p.t.insert(k)
	}
	p.t.touch(r)
	if pred.Hit {
		r.credit(pred.Value == actual)
	}
	// Confidence counts consecutive observations of the stored value, so
	// after a confidence-threshold number of same-value accesses the
	// next access predicts (paper footnote 3). A conflicting value
	// restarts the count at one observation — below any threshold >= 2,
	// i.e. "no prediction" (Sec. IV-A).
	e := &r.e
	if ok && e.value == actual {
		if e.confidence < p.cfg.MaxConf && (p.rng == nil || p.rng.Intn(p.cfg.FPC) == 0) {
			e.confidence++
		}
	} else {
		e.confidence = 1
		e.value = actual
	}
}

// Evictions implements Predictor.
func (p *LVP) Evictions() uint64 { return p.t.evictions }

// Reset implements Predictor: clears the table.
func (p *LVP) Reset() { p.t.reset() }

// Reconfigure restores the predictor to the state NewLVP(cfg) would
// build, its eviction count included, recycling its table buckets and
// rows. Trial harnesses that need a fresh predictor per trial use it
// to avoid re-growing the table from scratch every time; behavior
// after Reconfigure is bit-identical to a newly built LVP.
func (p *LVP) Reconfigure(cfg LVPConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg.setDefaults()
	p.t.reset()
	p.t.capacity, p.t.evictions = cfg.Entries, 0
	p.cfg = cfg
	p.rng = nil
	if cfg.FPC > 1 {
		p.rng = rand.New(rand.NewSource(cfg.FPCSeed))
	}
	return nil
}

// EntryState is a read-only view of one VPS row.
type EntryState struct {
	Confidence int
	Usefulness int
	Value      uint64
}

// Entry returns the state of ctx's entry, if present.
func (p *LVP) Entry(ctx Context) (EntryState, bool) {
	r, ok := p.t.rows[makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)]
	if !ok {
		return EntryState{}, false
	}
	return EntryState{Confidence: r.e.confidence, Usefulness: r.useful, Value: r.e.value}, true
}

// LastValue returns the stored value for ctx's entry regardless of
// confidence; the A-type defense wrapper uses it to always predict.
func (p *LVP) LastValue(ctx Context) (uint64, bool) {
	r, ok := p.t.rows[makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)]
	if !ok {
		return 0, false
	}
	return r.e.value, true
}

// Len returns the current number of table entries.
func (p *LVP) Len() int { return len(p.t.rows) }

// ConfidenceCounts implements ConfidenceReporter: the confidence
// counter of every live table entry, in no particular order.
func (p *LVP) ConfidenceCounts() []int {
	out := make([]int, 0, len(p.t.rows))
	for _, r := range p.t.rows {
		out = append(out, r.e.confidence)
	}
	return out
}
