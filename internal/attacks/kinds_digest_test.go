package attacks

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"vpsec/internal/core"
)

// TestKindDefenseDigest pins the observations of every predictor kind
// under the predictor-side defenses byte for byte. The registry sweep
// covers only none, lvp and vtage; this grid runs every PredictorKinds
// entry × {none, A, A-fixed, R(9), flush, A+R(9)} × {Train + Test,
// Test + Hit} at 10 runs and hashes each case's Mapped and Unmapped
// observations, so a change to any predictor family or wrapper that
// moves a simulated cycle moves the digest.
func TestKindDefenseDigest(t *testing.T) {
	const want = "86eff9870304cbf95949bdf3d6ada61c78096bebca4894299a552b872ffd8e97"
	d := sha256.New()
	var buf [8]byte
	put := func(xs []float64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(xs)))
		d.Write(buf[:])
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			d.Write(buf[:])
		}
	}
	for _, kind := range PredictorKinds() {
		for _, stack := range []string{"none", "A", "A-fixed", "R(9)", "flush", "A+R(9)"} {
			def, err := ParseStack(stack)
			if err != nil {
				t.Fatal(err)
			}
			for _, cat := range []core.Category{core.TrainTest, core.TestHit} {
				res, err := Run(context.Background(), cat, Options{
					Predictor: kind, Defense: def, Runs: 10, Seed: 1, Jobs: 2,
				})
				if err != nil {
					t.Fatalf("%s / %s / %v: %v", kind, stack, cat, err)
				}
				d.Write([]byte(string(kind) + "/" + stack + "/" + string(cat)))
				put(res.Mapped)
				put(res.Unmapped)
			}
		}
	}
	if got := hex.EncodeToString(d.Sum(nil)); got != want {
		t.Errorf("kind × defense digest %s, want %s", got, want)
	}
}
