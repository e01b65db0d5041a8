package predictor

import (
	"fmt"
	"slices"
)

// FactoryConfig is the common constructor parameterization New accepts
// for every kind. It is the intersection of the knobs the experiment
// surface exposes (cmd tools, internal/attacks, internal/scenario);
// kind-specific capacities keep their package defaults. Fields a kind
// does not support are ignored (e.g. FPC only exists on lvp and vtage,
// Scheme is meaningless for vtage).
type FactoryConfig struct {
	Confidence int         // confidence number; 0 means each kind's default (4)
	Scheme     IndexScheme // table index: ByPC (default), ByDataAddr, ByPhysAddr
	UsePID     bool        // include the pid in the index (Sec. V-B)
	FPC        int         // forward-probabilistic confidence rate 1/FPC (lvp/vtage)
	FPCSeed    int64       // seed for the FPC coin flips
	HistoryLen int         // context depth for history-based kinds (fcm); 0 keeps the kind default
}

// kinds lists the predictor kinds New constructs, in sorted order.
var kinds = []string{"fcm", "lvp", "none", "stride", "stride-2d", "vtage"}

// New constructs the named predictor kind from the common config. The
// name must be one of Names; unknown names report an error listing the
// registered kinds.
func New(name string, cfg FactoryConfig) (Predictor, error) {
	switch name {
	case "fcm":
		return NewFCM(FCMConfig{
			Confidence: cfg.Confidence, HistoryLen: cfg.HistoryLen,
			Scheme: cfg.Scheme, UsePID: cfg.UsePID,
		})
	case "lvp":
		return NewLVP(LVPConfig{
			Confidence: cfg.Confidence, Scheme: cfg.Scheme, UsePID: cfg.UsePID,
			FPC: cfg.FPC, FPCSeed: cfg.FPCSeed,
		})
	case "none":
		return NewNone(), nil
	case "stride":
		return NewStride(StrideConfig{
			Confidence: cfg.Confidence, Scheme: cfg.Scheme, UsePID: cfg.UsePID,
		})
	case "stride-2d":
		return NewStride2D(StrideConfig{
			Confidence: cfg.Confidence, Scheme: cfg.Scheme, UsePID: cfg.UsePID,
		})
	case "vtage":
		// VTAGE is inherently PC-plus-history indexed; cfg.Scheme does
		// not apply.
		return NewVTAGE(VTAGEConfig{
			Confidence: cfg.Confidence, UsePID: cfg.UsePID,
			FPC: cfg.FPC, FPCSeed: cfg.FPCSeed,
		})
	}
	return nil, fmt.Errorf("predictor: unknown kind %q (registered: %v)", name, Names())
}

// Registered reports whether New constructs the named kind.
func Registered(name string) bool { return slices.Contains(kinds, name) }

// Names lists the predictor kinds New constructs, in sorted order.
func Names() []string { return slices.Clone(kinds) }

// ParseScheme parses the CLI/spec spelling of an index scheme: "pc"
// (or empty, the default), "addr", or "phys".
func ParseScheme(s string) (IndexScheme, error) {
	switch s {
	case "", "pc":
		return ByPC, nil
	case "addr":
		return ByDataAddr, nil
	case "phys":
		return ByPhysAddr, nil
	}
	return ByPC, fmt.Errorf("unknown index scheme %q", s)
}
