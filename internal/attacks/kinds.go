package attacks

import (
	"fmt"

	"vpsec/internal/predictor"
)

// PredictorKinds lists every attackable predictor kind in a stable
// order — the vocabulary the scenario layer and the cmd tools validate
// against.
func PredictorKinds() []PredictorKind {
	return []PredictorKind{NoVP, LVP, VTAGE, Stride, Stride2D, FCM, OracleLVP, OracleVTAGE}
}

// Base resolves the kind to its predictor.New kind name plus whether
// the oracle PC filter wraps the constructed predictor (OracleLVP/
// OracleVTAGE restrict predictions to the attacked load's PC, as in
// the paper's experimental setup). This is the single
// string→constructor mapping behind every front-end; the former
// per-tool construction switches are gone.
func (k PredictorKind) Base() (name string, oracle bool, err error) {
	switch k {
	case NoVP:
		return "none", false, nil
	case LVP:
		return "lvp", false, nil
	case OracleLVP:
		return "lvp", true, nil
	case VTAGE:
		return "vtage", false, nil
	case OracleVTAGE:
		return "vtage", true, nil
	case Stride:
		return "stride", false, nil
	case Stride2D:
		return "stride-2d", false, nil
	case FCM:
		return "fcm", false, nil
	}
	return "", false, fmt.Errorf("attacks: unknown predictor kind %q", k)
}

// factoryConfig compiles the per-trial options into the registry's
// common constructor config, applying the attack harness conventions:
// the FPC coin flips are seeded from the trial seed, and the FCM runs
// with an order-1 context at threshold confidence-1 — the first access
// only establishes the context, so after a confidence number of
// accesses the VPT has seen confidence-1 repeats, keeping the paper's
// first-prediction-on-the-confidence+1-th-access convention. Deeper
// contexts need longer training (see the RSA FCM ablation).
func (o *Options) factoryConfig(base string, seed int64) predictor.FactoryConfig {
	cfg := predictor.FactoryConfig{
		Confidence: o.Confidence, UsePID: o.UsePID,
		FPC: o.FPC, FPCSeed: seed,
	}
	if base == "fcm" {
		th := o.Confidence - 1
		if th < 1 {
			th = 1
		}
		cfg.Confidence = th
		cfg.HistoryLen = 1
	}
	return cfg
}
