package rsa

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"vpsec/internal/cpu"
	"vpsec/internal/mem"
	"vpsec/internal/predictor"
)

// AttackOptions parameterizes the key-recovery experiment.
type AttackOptions struct {
	Seed      int64 // RNG seed
	TrainRuns int   // victim invocations before the measured one; 0 means 1

	// MakePredictor overrides the default LVP (confidence 4) with any
	// predictor: a context predictor such as FCM learns the pointer
	// swap's alternation and changes the leak, and predictor.NewNone is
	// the control experiment without value prediction.
	MakePredictor func() (predictor.Predictor, error)
}

// The rate model's fixed parameters.
const (
	clockHz   = 3e9     // modeled core clock
	syncEpoch = 330_000 // receiver sync cycles per leaked bit
)

// IterObs is one point of Fig. 7: the receiver's timing observation
// for one exponent iteration, labeled with the true bit.
type IterObs struct {
	Iter   int
	Cycles float64
	EBit   uint
}

// AttackResult is the outcome of one key-recovery run.
type AttackResult struct {
	Exponent  uint64 // the true secret
	Recovered uint64 // attacker's reconstruction
	Bits      int

	BitSuccess float64   // fraction of bits classified correctly (95.7% in the paper)
	Series     []IterObs // Fig. 7: per-iteration observations
	Threshold  float64   // classifier threshold used

	RateBps  float64 // modeled transmission rate (9.65 Kbps in the paper)
	ResultOK bool    // victim's modexp output matches the host-side golden model
}

// Attack runs the Fig. 6 victim under the value-predictor attack and
// recovers the exponent from per-iteration timing (Fig. 7): 1-bits —
// whose pointer swap defeats the predictor's confidence — run slow;
// 0-bits — whose balanced load is value-predicted — run fast. The
// victim runs TrainRuns+1 times; Attack returns ctx.Err() before each
// run once ctx is done.
func Attack(ctx context.Context, cfg VictimConfig, opt AttackOptions) (AttackResult, error) {
	prog, err := BuildVictim(cfg)
	if err != nil {
		return AttackResult{}, err
	}
	trainRuns := opt.TrainRuns
	if trainRuns == 0 {
		trainRuns = 1
	}
	var pred predictor.Predictor
	if opt.MakePredictor != nil {
		pred, err = opt.MakePredictor()
	} else {
		pred, err = predictor.NewLVP(predictor.LVPConfig{})
	}
	if err != nil {
		return AttackResult{}, err
	}
	m, err := cpu.NewMachine(cpu.Config{}, mem.DefaultHierarchy(), pred, rand.New(rand.NewSource(opt.Seed)))
	if err != nil {
		return AttackResult{}, err
	}
	m.Noise = cpu.DefaultNoise() // timing jitter on every access
	proc, err := m.NewProcess(1, prog, 0)
	if err != nil {
		return AttackResult{}, err
	}

	// Repeated invocations with the same key train the predictor
	// (Sec. IV-D1); the final run is the measured one.
	var totalCycles float64
	for r := 0; r <= trainRuns; r++ {
		if err := ctx.Err(); err != nil {
			return AttackResult{}, err
		}
		res, err := m.Run(proc)
		if err != nil {
			return AttackResult{}, err
		}
		totalCycles += float64(res.Cycles)
	}

	n := cfg.bits()
	out := AttackResult{Exponent: cfg.Exponent, Bits: n}
	lo, hi := float64(1<<62), 0.0
	for i := 0; i < n; i++ {
		c := float64(m.Hier.Mem.Peek(resultsAt + uint64(8*i)))
		ebit := uint(cfg.Exponent >> (n - 1 - i) & 1)
		out.Series = append(out.Series, IterObs{Iter: i, Cycles: c, EBit: ebit})
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	out.Threshold = (lo + hi) / 2

	correct := 0
	for _, o := range out.Series {
		guess := uint(0)
		if o.Cycles > out.Threshold {
			guess = 1
		}
		if guess == 1 {
			out.Recovered |= 1 << (n - 1 - o.Iter)
		}
		if guess == o.EBit {
			correct++
		}
	}
	out.BitSuccess = float64(correct) / float64(n)

	// The victim's architectural result must match the golden model —
	// the attack is passive and cannot perturb correctness.
	out.ResultOK = m.Hier.Mem.Peek(ResultAddr) == modExp(cfg.Base, cfg.Exponent&bitsMask(n), cfg.Mod)

	// Rate model: one bit per iteration, each costing its simulated
	// cycles plus a receiver synchronization epoch.
	perBit := totalCycles/float64((trainRuns+1)*n) + syncEpoch
	out.RateBps = clockHz / perBit
	return out, nil
}

func bitsMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// modExp is the host-side golden model the victim is checked against:
// base^exp mod m by right-to-left square-and-multiply, each product
// reduced through math/bits' 128-bit multiply and divide. m must be
// non-zero.
func modExp(base, exp, m uint64) uint64 {
	r := 1 % m
	base %= m
	for ; exp > 0; exp >>= 1 {
		if exp&1 == 1 {
			hi, lo := bits.Mul64(r, base)
			_, r = bits.Div64(hi, lo, m)
		}
		hi, lo := bits.Mul64(base, base)
		_, base = bits.Div64(hi, lo, m)
	}
	return r
}

// KeyRecoveryRate runs the attack over several independent trials with
// different seeds and reports the mean per-bit success rate — the
// paper's "95.7% for 60 runs" metric. It returns ctx.Err() once ctx is
// done.
func KeyRecoveryRate(ctx context.Context, cfg VictimConfig, opt AttackOptions, trials int) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("rsa: trials must be positive")
	}
	var sum float64
	for i := 0; i < trials; i++ {
		o := opt
		o.Seed = opt.Seed + int64(i)*7919
		res, err := Attack(ctx, cfg, o)
		if err != nil {
			return 0, err
		}
		if !res.ResultOK {
			return 0, fmt.Errorf("rsa: trial %d computed a wrong modexp result", i)
		}
		sum += res.BitSuccess
	}
	return sum / float64(trials), nil
}
