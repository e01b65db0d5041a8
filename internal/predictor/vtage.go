package predictor

import (
	"fmt"
	"math/rand"
)

// VTAGEConfig parameterizes the VTAGE predictor [Perais & Seznec,
// HPCA 2014]: a tagless last-value base table plus NumTagged tagged
// components indexed by the load PC hashed with geometrically longer
// slices of a global path history.
type VTAGEConfig struct {
	BaseEntries   int  // base component capacity; 0 means 256
	TaggedEntries int  // entries per tagged component; 0 means 128
	NumTagged     int  // tagged component count; 0 means 3
	MinHist       int  // history bits for the first tagged component; 0 means 4
	Confidence    int  // confidence threshold; 0 means 4
	MaxConf       int  // saturation; 0 means 2*Confidence
	TagBits       int  // partial tag width; 0 means 12
	UsePID        bool // include pid in the index

	// FPC enables forward-probabilistic confidence counters [Perais &
	// Seznec 2014]: instead of incrementing on every correct
	// prediction, the counter increments with probability 1/FPC —
	// emulating wider counters in fewer bits. Zero disables.
	FPC     int
	FPCSeed int64
}

func (c *VTAGEConfig) setDefaults() {
	if c.BaseEntries == 0 {
		c.BaseEntries = 256
	}
	if c.TaggedEntries == 0 {
		c.TaggedEntries = 128
	}
	if c.NumTagged == 0 {
		c.NumTagged = 3
	}
	if c.MinHist == 0 {
		c.MinHist = 4
	}
	if c.Confidence == 0 {
		c.Confidence = 4
	}
	if c.MaxConf == 0 {
		c.MaxConf = 2 * c.Confidence
	}
	if c.TagBits == 0 {
		c.TagBits = 12
	}
}

// Validate reports configuration errors.
func (c VTAGEConfig) Validate() error {
	if c.BaseEntries < 0 || c.TaggedEntries < 0 || c.NumTagged < 0 ||
		c.MinHist < 0 || c.Confidence < 0 || c.TagBits < 0 || c.TagBits > 32 {
		return fmt.Errorf("predictor: bad VTAGE config: %+v", c)
	}
	return nil
}

type vtageEntry struct {
	valid      bool
	tag        uint64
	value      uint64
	confidence int
	usefulness int
}

// VTAGE is a value predictor that captures both last-value and
// history-correlated value patterns. The paper uses an "oracle VTAGE"
// (see Oracle) to maximize the attacker's advantage; the plain VTAGE
// here demonstrates that the attacks are not LVP-specific (Sec. IV-D3).
type VTAGE struct {
	cfg    VTAGEConfig
	base   *LVP // tagless base component: behaves as a last value table
	tagged [][]vtageEntry
	hists  []int  // history lengths per tagged component (geometric)
	path   uint64 // global path history of recent load PCs
	rng    *rand.Rand
}

// NewVTAGE builds a VTAGE from cfg (zero fields take defaults).
func NewVTAGE(cfg VTAGEConfig) (*VTAGE, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	base, err := NewLVP(LVPConfig{
		Entries:    cfg.BaseEntries,
		Confidence: cfg.Confidence,
		MaxConf:    cfg.MaxConf,
		Scheme:     ByPC,
		UsePID:     cfg.UsePID,
		FPC:        cfg.FPC,
		FPCSeed:    cfg.FPCSeed + 1,
	})
	if err != nil {
		return nil, err
	}
	v := &VTAGE{cfg: cfg, base: base}
	if cfg.FPC > 1 {
		v.rng = rand.New(rand.NewSource(cfg.FPCSeed))
	}
	v.tagged = make([][]vtageEntry, cfg.NumTagged)
	v.hists = make([]int, cfg.NumTagged)
	h := cfg.MinHist
	for i := range v.tagged {
		v.tagged[i] = make([]vtageEntry, cfg.TaggedEntries)
		v.hists[i] = h
		h *= 2 // geometric history lengths
		if h > 63 {
			h = 63
		}
	}
	return v, nil
}

// Name implements Predictor.
func (v *VTAGE) Name() string { return "vtage" }

func (v *VTAGE) foldHistory(bits int) uint64 {
	mask := uint64(1)<<uint(bits) - 1
	return v.path & mask
}

func (v *VTAGE) index(comp int, ctx Context) int {
	h := v.foldHistory(v.hists[comp])
	x := ctx.PC ^ h<<7 ^ h>>3 ^ ctx.Tag
	if v.cfg.UsePID {
		x ^= ctx.PID << 17
	}
	// xorshift-style mixing to spread indices
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return int(x % uint64(v.cfg.TaggedEntries))
}

func (v *VTAGE) tag(comp int, ctx Context) uint64 {
	h := v.foldHistory(v.hists[comp])
	x := ctx.PC ^ h<<3 ^ uint64(comp)<<11 ^ ctx.Tag
	if v.cfg.UsePID {
		x ^= ctx.PID << 23
	}
	x ^= x >> 17
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 31
	return x & (uint64(1)<<uint(v.cfg.TagBits) - 1)
}

// Predict implements Predictor: the longest-history tagged component
// with a matching, confident entry provides the prediction; otherwise
// the base last-value table is consulted.
func (v *VTAGE) Predict(ctx Context) Prediction {
	for c := v.cfg.NumTagged - 1; c >= 0; c-- {
		e := &v.tagged[c][v.index(c, ctx)]
		if e.valid && e.tag == v.tag(c, ctx) && e.confidence >= v.cfg.Confidence {
			return Prediction{Hit: true, Value: e.value}
		}
	}
	return v.base.Predict(ctx)
}

// Update implements Predictor. The providing component (or the first
// matching one) trains; on a wrong value the entry's confidence resets
// and, for repeated failures, a longer-history component is allocated.
func (v *VTAGE) Update(ctx Context, actual uint64, pred Prediction) {
	matched := false
	for c := v.cfg.NumTagged - 1; c >= 0; c-- {
		e := &v.tagged[c][v.index(c, ctx)]
		if e.valid && e.tag == v.tag(c, ctx) {
			matched = true
			if e.value == actual {
				if e.confidence < v.cfg.MaxConf && v.bumpConfidence() {
					e.confidence++
				}
				e.usefulness++
			} else {
				e.confidence = 0
				e.value = actual
				if e.usefulness > 0 {
					e.usefulness--
				}
			}
			break
		}
	}
	// Base component always trains (it is tagless).
	v.base.Update(ctx, actual, Prediction{})
	// On a misprediction with no tagged match, allocate in the
	// shortest-history component whose slot is not useful.
	if pred.Hit && pred.Value != actual && !matched {
		for c := 0; c < v.cfg.NumTagged; c++ {
			e := &v.tagged[c][v.index(c, ctx)]
			if !e.valid || e.usefulness == 0 {
				*e = vtageEntry{valid: true, tag: v.tag(c, ctx), value: actual}
				break
			}
			e.usefulness--
		}
	}
	// Advance the global path history with the load's PC.
	v.path = v.path<<1 ^ (ctx.PC >> 2 & 1) ^ (ctx.PC >> 5 & 1)
}

// Evictions implements Predictor: the base table's evictions. A tagged
// component overwrites a slot in place, which is not an eviction.
func (v *VTAGE) Evictions() uint64 { return v.base.Evictions() }

// Reset implements Predictor.
func (v *VTAGE) Reset() {
	v.base.Reset()
	for c := range v.tagged {
		for i := range v.tagged[c] {
			v.tagged[c][i] = vtageEntry{}
		}
	}
	v.path = 0
}

// bumpConfidence implements the (optionally probabilistic) confidence
// increment.
func (v *VTAGE) bumpConfidence() bool {
	if v.rng == nil {
		return true
	}
	return v.rng.Intn(v.cfg.FPC) == 0
}

// LastValue exposes the base table's stored value for the A-type
// defense wrapper.
func (v *VTAGE) LastValue(ctx Context) (uint64, bool) { return v.base.LastValue(ctx) }

// ConfidenceCounts implements ConfidenceReporter: the base table's
// counters followed by every valid tagged entry's counter.
func (v *VTAGE) ConfidenceCounts() []int {
	out := v.base.ConfidenceCounts()
	for c := range v.tagged {
		for i := range v.tagged[c] {
			if v.tagged[c][i].valid {
				out = append(out, v.tagged[c][i].confidence)
			}
		}
	}
	return out
}
