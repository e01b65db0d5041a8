package predictor

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
type Stride2D struct{ strideTable }

// NewStride2D builds a 2-delta stride predictor from cfg.
func NewStride2D(cfg StrideConfig) (*Stride2D, error) {
	st, err := newStrideTable(cfg, true)
	if err != nil {
		return nil, err
	}
	return &Stride2D{st}, nil
}

// Name implements Predictor.
func (p *Stride2D) Name() string { return "stride-2d" }

// learnTwoDelta is the 2-delta transition on delta s. The delta always
// lands in candidate; it is promoted to the predicted stride only when
// it matches the previous candidate — the defining 2-delta hysteresis.
func (e *strideEntry) learnTwoDelta(s uint64, maxConf int) {
	switch {
	case e.obs == 1:
		// First delta: seed both strides so a constant or regular
		// stream starts counting confidence immediately.
		e.candidate = s
		e.stride = s
		e.confidence = 1
	case s == e.stride:
		e.candidate = s
		if e.confidence < maxConf {
			e.confidence++
		}
	case s == e.candidate:
		// The same new delta twice in a row: promote it.
		e.stride = s
		e.confidence = 1
	default:
		// A one-off irregular delta: remember it as the candidate but
		// keep predicting with the stride. Confidence drops (the
		// prediction just failed) but the established pattern survives.
		e.candidate = s
		if e.confidence > 0 {
			e.confidence--
		}
	}
}
