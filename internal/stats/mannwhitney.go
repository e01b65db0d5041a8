package stats

import (
	"cmp"
	"math"
	"slices"
)

// MannWhitneyResult holds the outcome of a two-sided Mann-Whitney U
// test (Wilcoxon rank-sum).
type MannWhitneyResult struct {
	U float64 // U statistic for the first sample
	Z float64 // normal approximation with tie correction
	P float64 // two-sided p-value
}

// MannWhitneyU performs a two-sided Mann-Whitney U test on xs and ys
// using the normal approximation with tie correction (appropriate for
// the paper's 100-observation samples). Timing distributions are often
// bimodal — a prediction either happened or not — so this
// nonparametric test is a useful robustness check next to the paper's
// Student t-test: an attack that shifts *any* aspect of the
// distribution is detected without normality assumptions.
func MannWhitneyU(xs, ys []float64) (MannWhitneyResult, error) {
	n1, n2 := len(xs), len(ys)
	if n1 < 2 || n2 < 2 {
		return MannWhitneyResult{}, ErrTooFewSamples
	}
	type obs struct {
		v     float64
		first bool
	}
	all := make([]obs, 0, n1+n2)
	for _, x := range xs {
		all = append(all, obs{x, true})
	}
	for _, y := range ys {
		all = append(all, obs{y, false})
	}
	slices.SortFunc(all, func(a, b obs) int { return cmp.Compare(a.v, b.v) })

	// Midranks with tie accounting. Every member of a tie group shares
	// its midrank, so r1 adds the group's midrank once per first-sample
	// member, in sorted order.
	var r1 float64
	var tieSum float64 // sum of t^3 - t over tie groups
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for _, o := range all[i:j] {
			if o.first {
				r1 += mid
			}
		}
		t := float64(j - i)
		tieSum += t*t*t - t
		i = j
	}
	u1 := r1 - float64(n1)*float64(n1+1)/2
	mean := float64(n1) * float64(n2) / 2
	nTot := float64(n1 + n2)
	variance := float64(n1) * float64(n2) / 12 *
		(nTot + 1 - tieSum/(nTot*(nTot-1)))
	if variance <= 0 {
		// All observations identical.
		return MannWhitneyResult{U: u1, Z: 0, P: 1}, nil
	}
	z := (u1 - mean) / math.Sqrt(variance)
	p := 2 * normUpper(math.Abs(z))
	if p > 1 {
		p = 1
	}
	return MannWhitneyResult{U: u1, Z: z, P: p}, nil
}

// normUpper is the standard normal upper tail P(Z > z) for z >= 0.
func normUpper(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}
