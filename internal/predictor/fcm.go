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

type fcmHist struct {
	vals      []uint64
	lastTouch uint64
}

type fcmPred struct {
	value      uint64
	confidence int
	lastTouch  uint64
}

// FCM is a two-level finite context method value predictor [Sazeides &
// Smith 1997]: the first level keeps, per index, a history of the last
// HistoryLen values; the second level maps a hash of that history to
// the value that followed it last time. Unlike the LVP it learns
// *patterned* sequences — e.g. the strictly alternating pointer values
// of Fig. 6's swap — which changes the attack surface: see the RSA
// ablation tests.
type FCM struct {
	cfg   FCMConfig
	vht   map[key]*fcmHist
	vpt   map[uint64]*fcmPred
	tick  uint64
	stats Stats
}

// NewFCM builds an FCM predictor from cfg.
func NewFCM(cfg FCMConfig) (*FCM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	return &FCM{cfg: cfg, vht: make(map[key]*fcmHist), vpt: make(map[uint64]*fcmPred)}, nil
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
	p.stats.Lookups++
	k := makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)
	h, ok := p.vht[k]
	if !ok || len(h.vals) < p.cfg.HistoryLen {
		p.stats.NoPredictions++
		return Prediction{}
	}
	t, ok := p.vpt[p.hash(k, h.vals)]
	if !ok || t.confidence < p.cfg.Confidence {
		p.stats.NoPredictions++
		return Prediction{}
	}
	p.tick++
	t.lastTouch = p.tick
	h.lastTouch = p.tick
	p.stats.Predictions++
	return Prediction{Hit: true, Value: t.value}
}

// Update implements Predictor: train the VPT entry for the context
// *before* this value, then push the value into the history.
func (p *FCM) Update(ctx Context, actual uint64, pred Prediction) {
	p.tick++
	if pred.Hit {
		if pred.Value == actual {
			p.stats.Correct++
		} else {
			p.stats.Mispredicts++
		}
	}
	k := makeKey(p.cfg.Scheme, p.cfg.UsePID, ctx)
	h, ok := p.vht[k]
	if !ok {
		if len(p.vht) >= p.cfg.Entries {
			p.evictVHT()
		}
		h = &fcmHist{}
		p.vht[k] = h
	}
	h.lastTouch = p.tick
	if len(h.vals) == p.cfg.HistoryLen {
		hk := p.hash(k, h.vals)
		t, ok := p.vpt[hk]
		if !ok {
			if len(p.vpt) >= p.cfg.VPTEntries {
				p.evictVPT()
			}
			t = &fcmPred{}
			p.vpt[hk] = t
		}
		t.lastTouch = p.tick
		if t.value == actual && t.confidence > 0 {
			if t.confidence < p.cfg.MaxConf {
				t.confidence++
			}
		} else {
			t.value = actual
			t.confidence = 1
		}
	}
	h.vals = append(h.vals, actual)
	if len(h.vals) > p.cfg.HistoryLen {
		h.vals = h.vals[len(h.vals)-p.cfg.HistoryLen:]
	}
}

func (p *FCM) evictVHT() {
	var victim key
	oldest := ^uint64(0)
	for k, h := range p.vht {
		if h.lastTouch < oldest {
			oldest = h.lastTouch
			victim = k
		}
	}
	delete(p.vht, victim)
	p.stats.Evictions++
}

func (p *FCM) evictVPT() {
	var victim uint64
	oldest := ^uint64(0)
	for k, t := range p.vpt {
		if t.lastTouch < oldest {
			oldest = t.lastTouch
			victim = k
		}
	}
	delete(p.vpt, victim)
	p.stats.Evictions++
}

// Stats implements Predictor.
func (p *FCM) Stats() Stats { return p.stats }

// Reset implements Predictor.
func (p *FCM) Reset() {
	p.vht = make(map[key]*fcmHist)
	p.vpt = make(map[uint64]*fcmPred)
	p.stats = Stats{}
	p.tick = 0
}
