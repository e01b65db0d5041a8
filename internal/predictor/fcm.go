package predictor

import "fmt"

// FCMConfig parameterizes the finite context method predictor.
type FCMConfig struct {
	Entries    int // value-history table capacity; 0 means 256
	VPTEntries int // value-prediction table capacity; 0 means 1024
	HistoryLen int // values of context; 0 means 2
	Confidence int // threshold; 0 means 4
	MaxConf    int // saturation; 0 means 2*Confidence
	Scheme     IndexScheme
	UsePID     bool
}

func (c *FCMConfig) setDefaults() {
	if c.Entries == 0 {
		c.Entries = 256
	}
	if c.VPTEntries == 0 {
		c.VPTEntries = 1024
	}
	if c.HistoryLen == 0 {
		c.HistoryLen = 2
	}
	if c.Confidence == 0 {
		c.Confidence = 4
	}
	if c.MaxConf == 0 {
		c.MaxConf = 2 * c.Confidence
	}
}

// Validate reports configuration errors.
func (c FCMConfig) Validate() error {
	if c.Entries < 0 || c.VPTEntries < 0 || c.HistoryLen < 0 || c.Confidence < 0 {
		return fmt.Errorf("predictor: negative FCM parameter: %+v", c)
	}
	if c.HistoryLen > 8 {
		return fmt.Errorf("predictor: FCM history %d too long (max 8)", c.HistoryLen)
	}
	return nil
}

// fcmPred is a second-level row's payload: the value that followed
// the row's history context, and its confidence.
type fcmPred struct {
	value      uint64
	confidence int
}

// FCM is a two-level finite context method value predictor [Sazeides &
// Smith 1997]: the first level keeps, per index, a history of the last
// HistoryLen values; the second level maps a hash of that history to
// the value that followed it last time. Unlike the LVP it learns
// *patterned* sequences — e.g. the strictly alternating pointer values
// of Fig. 6's swap — which changes the attack surface: see the RSA
// ablation tests. Both levels are Fig. 1 tables whose rows never earn
// usefulness, so each evicts its least recently touched row.
type FCM struct {
	cfg FCMConfig
	vht table[key, []uint64]   // first level: index -> value history
	vpt table[uint64, fcmPred] // second level: history hash -> successor
}

// NewFCM builds an FCM predictor from cfg.
func NewFCM(cfg FCMConfig) (*FCM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	return &FCM{cfg: cfg, vht: newTable[key, []uint64](cfg.Entries), vpt: newTable[uint64, fcmPred](cfg.VPTEntries)}, nil
}

// Name implements Predictor.
func (p *FCM) Name() string { return "fcm" }

func (p *FCM) hash(k key, vals []uint64) uint64 {
	h := k.idx*0x9e3779b97f4a7c15 ^ k.pid<<32 ^ k.tag
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + h<<6 + h>>2
	}
	return h
}

// Predict implements Predictor: a prediction requires a full history
// whose context has repeated its successor a confidence number of
// times.
func (p *FCM) Predict(ctx Context) Prediction {
	k := makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)
	h, ok := p.vht.rows[k]
	if !ok || len(h.e) < p.cfg.HistoryLen {
		return Prediction{}
	}
	t, ok := p.vpt.rows[p.hash(k, h.e)]
	if !ok || t.e.confidence < p.cfg.Confidence {
		return Prediction{}
	}
	p.vpt.touch(t)
	p.vht.touch(h)
	return Prediction{Hit: true, Value: t.e.value}
}

// Update implements Predictor: train the second-level entry for the
// context *before* this value, then push the value into the history.
func (p *FCM) Update(ctx Context, actual uint64, pred Prediction) {
	k := makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)
	h, ok := p.vht.rows[k]
	if !ok {
		h = p.vht.insert(k)
	}
	p.vht.touch(h)
	if len(h.e) == p.cfg.HistoryLen {
		hk := p.hash(k, h.e)
		t, ok := p.vpt.rows[hk]
		if !ok {
			t = p.vpt.insert(hk)
		}
		p.vpt.touch(t)
		if e := &t.e; e.value == actual && e.confidence > 0 {
			if e.confidence < p.cfg.MaxConf {
				e.confidence++
			}
		} else {
			e.value = actual
			e.confidence = 1
		}
	}
	h.e = append(h.e, actual)
	if len(h.e) > p.cfg.HistoryLen {
		h.e = h.e[len(h.e)-p.cfg.HistoryLen:]
	}
}

// Evictions implements Predictor: both levels' evictions.
func (p *FCM) Evictions() uint64 { return p.vht.evictions + p.vpt.evictions }

// Reset implements Predictor.
func (p *FCM) Reset() {
	p.vht.reset()
	p.vpt.reset()
}
