// Package predictor implements the Value Prediction System (VPS) of
// the paper's Fig. 1 and the defense wrappers of Sec. VI.
//
// A VPS entry tracks, per index: the predicted value, a confidence
// counter, a usefulness counter, and the past value history (VHist).
// The index is the load's program counter or its data address —
// virtual addresses, per the threat model — optionally combined with a
// process identifier. A prediction is produced only once the same
// value has been observed a confidence-threshold number of times, so
// the predictor "will output a first prediction on the confidence+1
// access" (Sec. II, footnote 3). A misprediction squashes the
// dependent instructions (handled by internal/cpu) and resets the
// entry's confidence. When the table is full, the entry with the
// smallest usefulness is evicted.
package predictor

import "fmt"

// IndexScheme selects what indexes the predictor's state (Sec. II:
// PC-based vs data-address-based predictors).
type IndexScheme int

// Index schemes. ByPhysAddr models the physical-address-based
// predictors of the paper's footnote 1: attacks on them need shared
// physical memory, since private mappings never collide.
const (
	ByPC IndexScheme = iota
	ByDataAddr
	ByPhysAddr
)

// String renders the scheme's name: "pc", "data-addr" or "phys-addr"
// ("?" for an unknown value).
func (s IndexScheme) String() string {
	switch s {
	case ByPC:
		return "pc"
	case ByDataAddr:
		return "data-addr"
	case ByPhysAddr:
		return "phys-addr"
	}
	return "?"
}

// Context carries the information available to the VPS at a load.
// Addresses are virtual (the paper's footnote 1: most studied value
// predictors use virtual addresses).
type Context struct {
	PC       uint64 // virtual instruction address of the load
	Addr     uint64 // virtual data address being loaded
	PhysAddr uint64 // physical data address (ByPhysAddr schemes)
	PID      uint64 // process identifier, used only if the scheme asks

	// Tag is the isolation-domain tag of the running context (the
	// context-tagged predictor-isolation defense, generalizing the
	// paper's Sec. V-B pid-indexing): a non-zero tag partitions every
	// predictor's state by domain, so entries trained in one domain are
	// invisible to loads from another. Zero — the default — leaves
	// indexing exactly as the paper models it.
	Tag uint64
}

// Prediction is the outcome of consulting the VPS.
type Prediction struct {
	Hit   bool   // a prediction was made (confidence reached)
	Value uint64 // predicted value, meaningful when Hit
}

// Stats counts predictor events. Field names follow the metrics
// registry scope convention (pred.<name>.lookups, .predictions,
// .no_predictions, .correct, .mispredicts, .evictions) so code,
// JSON dumps, and Prometheus exports share one vocabulary.
type Stats struct {
	Lookups       uint64 // Predict calls
	Predictions   uint64 // lookups that produced a value
	NoPredictions uint64 // lookups below the confidence threshold
	Correct       uint64 // verified-correct predictions
	Mispredicts   uint64 // verified-incorrect predictions (squashes)
	Evictions     uint64 // usefulness-based evictions
}

// Accuracy returns Correct / (Correct + Mispredicts), or 0 when no
// prediction has been verified yet.
func (s Stats) Accuracy() float64 {
	if v := s.Correct + s.Mispredicts; v > 0 {
		return float64(s.Correct) / float64(v)
	}
	return 0
}

// ConfidenceReporter is implemented by predictors that can report the
// current values of their per-entry confidence counters; the metrics
// layer turns the slice into the pred.<name>.confidence histogram
// (Sec. IV-A's training dynamics are visible in this distribution).
type ConfidenceReporter interface {
	ConfidenceCounts() []int
}

// Predictor is the interface between the pipeline's Value Prediction
// Engine and a concrete predictor.
//
// Predict is consulted when a load misses the cache (load-based VPS,
// Sec. II). Update is called by the Prediction Engine Verification
// when the actual loaded value is available; pred must be the
// Prediction previously returned for this load so confidence and
// usefulness are updated per Fig. 1.
type Predictor interface {
	Predict(ctx Context) Prediction
	Update(ctx Context, actual uint64, pred Prediction)
	Stats() Stats
	Reset()
	Name() string
}

// key identifies a VPS entry. The tag component carries the
// context-isolation domain (Context.Tag): it is always part of the key,
// so a zero tag reproduces the paper's shared tables bit-for-bit while
// a tagged machine partitions every entry by domain.
type key struct {
	idx uint64
	pid uint64
	tag uint64
}

func makeKey(scheme IndexScheme, usePID bool, ctx Context) key {
	var k key
	switch scheme {
	case ByPC:
		k.idx = ctx.PC
	case ByDataAddr:
		k.idx = ctx.Addr
	case ByPhysAddr:
		k.idx = ctx.PhysAddr
	default:
		panic(fmt.Sprintf("predictor: unknown index scheme %d", scheme))
	}
	if usePID {
		k.pid = ctx.PID
	}
	k.tag = ctx.Tag
	return k
}
