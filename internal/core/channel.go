package core

// Channel is the exfiltration medium used by the encode/decode steps
// (Sec. V, steps 4 and 5).
type Channel uint8

// Channels.
const (
	// TimingWindow directly measures the latency of the trigger load
	// and its dependent instructions (RDTSC/FENCE pairs): correct
	// prediction < no prediction < misprediction. The paper introduces
	// the "no prediction vs correct prediction" timing-window channel.
	TimingWindow Channel = iota
	// Persistent encodes the predictor's output into cache state during
	// transient execution (Spectre-style array access, Fig. 4) and
	// decodes it with a reload probe.
	Persistent
	// Volatile encodes into contention for issue/execution ports while
	// the victim runs (e.g. SMoTherSpectre-style); observable only
	// during execution, leaving no state behind.
	Volatile
)

// String names the channel as the reports print it.
func (c Channel) String() string {
	switch c {
	case TimingWindow:
		return "timing-window"
	case Persistent:
		return "persistent"
	case Volatile:
		return "volatile"
	}
	return "?"
}

// ChannelsFor returns the channels an attack category can use
// (Sec. V-B closing discussion): every category supports the
// timing-window channel; Train+Test, Test+Hit and Fill Up also train
// the predictor on the secret before the trigger, so they can extract
// it through transient execution into a persistent or volatile
// channel. Table III accordingly evaluates the persistent channel only
// for those three.
func ChannelsFor(c Category) []Channel {
	switch c {
	case TrainTest, TestHit, FillUp:
		return []Channel{TimingWindow, Persistent, Volatile}
	default:
		return []Channel{TimingWindow}
	}
}

// TimingContrast names the pair of prediction outcomes whose timing
// difference a variant observes (Fig. 2's taxonomy axes).
type TimingContrast uint8

// Contrasts.
const (
	// CorrectVsWrong: misprediction vs correct prediction, the contrast
	// known from branch-predictor attacks (BranchScope, Jump over ASLR).
	CorrectVsWrong TimingContrast = iota
	// CorrectVsNone: no prediction vs correct prediction — the new
	// timing-window type this paper introduces.
	CorrectVsNone
	// WrongVsNone: no prediction vs incorrect prediction —
	// theoretically possible, no known examples (Fig. 2).
	WrongVsNone
)

// String describes the contrast in the paper's words (Fig. 2).
func (t TimingContrast) String() string {
	switch t {
	case CorrectVsWrong:
		return "misprediction vs. correct prediction"
	case CorrectVsNone:
		return "no prediction vs. correct prediction"
	case WrongVsNone:
		return "no prediction vs. incorrect prediction"
	}
	return "?"
}

// ContrastFor returns the timing contrast each category's
// timing-window variant observes (Sec. V-B).
func ContrastFor(c Category) TimingContrast {
	switch c {
	case SpillOver:
		// Correct prediction when all secrets match vs confidence never
		// reached: the new no-prediction contrast.
		return CorrectVsNone
	case TrainTest, ModifyTest:
		// A 1-access modify resets confidence (no prediction); a
		// confidence-count modify retrains (misprediction). Both
		// contrasts arise; the headline PoC uses correct-vs-wrong.
		return CorrectVsWrong
	default:
		return CorrectVsWrong
	}
}

// TaxonomyEntry is one leaf of Fig. 2.
type TaxonomyEntry struct {
	Contrast TimingContrast
	Examples []string
	New      bool // first demonstrated by this work
}

// Taxonomy reproduces Fig. 2's classification of timing-window
// microarchitectural channels.
func Taxonomy() []TaxonomyEntry {
	return []TaxonomyEntry{
		{
			Contrast: CorrectVsWrong,
			Examples: []string{"BranchScope", "Jump over ASLR", "this work (Train+Test, Fill Up, Modify+Test, Train+Hit, Test+Hit)"},
		},
		{
			Contrast: CorrectVsNone,
			Examples: []string{"this work (Spill Over; Train+Test/Modify+Test 1-access variants)"},
			New:      true,
		},
		{
			Contrast: WrongVsNone,
			Examples: nil, // no known examples
		},
	}
}
