package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMannWhitneyIdenticalDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 150)
	ys := make([]float64, 150)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64()
	}
	res, err := MannWhitneyU(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.01 {
		t.Errorf("same-distribution p = %v, expected large", res.P)
	}
}

func TestMannWhitneySeparated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 60)
	ys := make([]float64, 60)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = 4 + rng.NormFloat64()
	}
	res, err := MannWhitneyU(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-10 {
		t.Errorf("separated p = %v, expected tiny", res.P)
	}
	if res.Z >= 0 {
		t.Errorf("z = %v, expected negative (xs stochastically smaller)", res.Z)
	}
}

func TestMannWhitneyAgainstReference(t *testing.T) {
	// Hand-checked asymptotic value without continuity correction
	// (matches scipy.stats.mannwhitneyu(..., use_continuity=False,
	// method='asymptotic')): a = [1,2,3,4,5], b = [3,4,5,6,7]:
	// R1 = 19.5, U = 4.5, tie-corrected var = 22.5,
	// z = -8/sqrt(22.5) = -1.6865, p = 0.0917.
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{3, 4, 5, 6, 7}
	res, err := MannWhitneyU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.U != 4.5 {
		t.Errorf("U = %v, want 4.5", res.U)
	}
	if res.P < 0.091 || res.P > 0.093 {
		t.Errorf("p = %v, want ~0.0917", res.P)
	}

	// Exact float64 bits, pinned so a change to the ranking or the
	// summation order shows up bit for bit. Two tie-heavy samples of
	// integer cycle counts (one overlapping, one fully separated, like
	// a cache-suite case's arms) and one sample with no ties at all.
	overlapX, overlapY := make([]float64, 100), make([]float64, 100)
	sepX, sepY := make([]float64, 100), make([]float64, 100)
	for i := range overlapX {
		overlapX[i] = 200 + float64((i*7)%13)
		overlapY[i] = 203 + float64((i*5)%11)
		sepX[i] = 175 + float64((i*3)%12)
		sepY[i] = 350 + float64((i*11)%12)
	}
	distinctX, distinctY := make([]float64, 37), make([]float64, 41)
	for i := range distinctX {
		distinctX[i] = 1.5*float64((i*17)%37) + 0.25
	}
	for i := range distinctY {
		distinctY[i] = 1.5*float64((i*13)%41) + 0.9
	}
	for _, c := range []struct {
		name    string
		xs, ys  []float64
		u, z, p uint64
	}{
		{"overlapping ties", overlapX, overlapY, 0x40ab000000000000, 0xc00e45f73fc0fba3, 0x3f2436fd81e2d8f5},
		{"separated ties", sepX, sepY, 0x0, 0xc0288a59bfbbe8e4, 0x38e5c0070aeb0055},
		{"no ties", distinctX, distinctY, 0x4084d00000000000, 0xbfed9e8fd78b9fee, 0x3fd6b299d1589a70},
	} {
		res, err := MannWhitneyU(c.xs, c.ys)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.U) != c.u || math.Float64bits(res.Z) != c.z || math.Float64bits(res.P) != c.p {
			t.Errorf("%s: U, Z, P = %#x, %#x, %#x; want %#x, %#x, %#x", c.name,
				math.Float64bits(res.U), math.Float64bits(res.Z), math.Float64bits(res.P), c.u, c.z, c.p)
		}
	}
}

func TestMannWhitneyDegenerate(t *testing.T) {
	if _, err := MannWhitneyU([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("too-few samples should fail")
	}
	res, err := MannWhitneyU([]float64{5, 5, 5}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 {
		t.Errorf("identical constants p = %v, want 1", res.P)
	}
}

// TestMannWhitneyAgreesWithTTestOnAttackData: both tests must reach
// the same decision on attack-shaped (bimodal, well-separated) data.
func TestMannWhitneyAgreesWithTTestOnAttackData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	fast := make([]float64, 100)
	slow := make([]float64, 100)
	for i := range fast {
		fast[i] = 175 + float64(rng.Intn(12))
		slow[i] = 350 + float64(rng.Intn(12))
	}
	mw, err := MannWhitneyU(fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := WelchTTest(fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	if (mw.P < 0.05) != (tt.P < 0.05) {
		t.Errorf("decisions disagree: MW p=%v, t p=%v", mw.P, tt.P)
	}
}
