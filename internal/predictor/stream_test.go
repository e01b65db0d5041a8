package predictor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// streamCase is one predictor under the stream digest.
type streamCase struct {
	name string
	p    Predictor
}

func streamCases(t *testing.T) []streamCase {
	t.Helper()
	must := func(p Predictor, err error) Predictor {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	lvp := func(cfg LVPConfig) *LVP {
		cfg.Entries, cfg.Confidence = 8, 2
		return must(NewLVP(cfg)).(*LVP)
	}
	return []streamCase{
		{"lvp", lvp(LVPConfig{})},
		{"lvp", lvp(LVPConfig{UsePID: true})},
		{"lvp", lvp(LVPConfig{FPC: 3, FPCSeed: 5})},
		{"stride", must(NewStride(StrideConfig{Entries: 8, Confidence: 2}))},
		{"stride-2d", must(NewStride2D(StrideConfig{Entries: 8, Confidence: 2}))},
		{"fcm", must(NewFCM(FCMConfig{Entries: 6, VPTEntries: 10, HistoryLen: 1, Confidence: 2}))},
		{"fcm", must(NewFCM(FCMConfig{Entries: 6, VPTEntries: 10, HistoryLen: 2, Confidence: 2}))},
		{"vtage", must(NewVTAGE(VTAGEConfig{BaseEntries: 8, TaggedEntries: 8, Confidence: 2, FPC: 2, FPCSeed: 3}))},
		{"A", NewAType(lvp(LVPConfig{}), 7)},
		{"A-stride", NewAType(must(NewStride(StrideConfig{Entries: 8, Confidence: 2})), 7)},
		{"A-stride-2d", NewAType(must(NewStride2D(StrideConfig{Entries: 8, Confidence: 2})), 7)},
		{"A-fixed", NewATypeFixed(lvp(LVPConfig{}), 7)},
		{"R(5)", NewRType(lvp(LVPConfig{}), 5, rand.New(rand.NewSource(9)))},
		{"oracle", NewOracle(lvp(LVPConfig{}), 0x40, 0x48, 0x60, 0x78, 0x90, 0xa8)},
	}
}

// load is one predicted load of the stream awaiting its Update.
type load struct {
	ctx    Context
	actual uint64
	pred   Prediction
}

// TestStreamDigest pins every prediction of every predictor family and
// wrapper on one 20,000-step Predict/Update stream, each load verified
// up to three loads after its prediction, with a Reset about every
// 1,000 steps, at capacities small enough that the stream keeps
// evicting. The stream mixes constant, strided, alternating and noisy
// loads over 24 PCs (six of them hot), two pids and two isolation
// tags. The digest also covers the evictions each predictor reports
// between Resets, which the wrappers forward from their inner
// predictor and VTAGE from its base.
func TestStreamDigest(t *testing.T) {
	want := map[string]string{
		"lvp":       "866af0e4f20fd4409fc34a72944dd286148ca44e67e04085447d60ef3d27a77f",
		"stride":    "e75380fa15615a834f664c099f61ed30c5da4a1743c3992591f3cc5197624070",
		"stride-2d": "239fab5ab93130bfa100cb1e980c92bdded7a478d536d56d73db80770955ff86",
		"fcm":       "3e2ae9df618677690361977e55259fc3ff7ed1ecc09fc4888e6bb28114049501",
		"vtage":     "5e55d31d25b237e10986ce71e382cc7d9b5a36ea85e52fd91dd2bd0de8c63834",
		"A":         "cb0eff5f1066c5efb6bdc2658351c25549ab394d6962f656c7525847fdb2e178",
		"A-fixed":   "6f58e299138d2b99990d4cb24be681c37bb1d538b66a858758f48c83199131f2",
		"R(5)":      "58ec7f8d13d29283391659a9bf06e4d37843022ef64eca7d1f765b4f9e5ad869",
		"oracle":    "020ddc314bc2469e2d56231aa9f196d95906f83804ba15d15ec7e4f51cdb8ea6",
		// A hands a missing entry a Hit: LVP credits the entry that
		// update allocates, the stride families do not.
		"A-stride":    "50fd32a6e52668cd8956c0d4b56830a20c49b46869069f36b2979fdb1e6c4e82",
		"A-stride-2d": "7b9fb9815b7b41efb0943df370c46c577c2a6d0ac06259d178dc32d98591ddab",
	}
	got := map[string][]byte{}
	for _, c := range streamCases(t) {
		d := sha256.New()
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			d.Write(buf[:])
		}
		rng := rand.New(rand.NewSource(1))
		var seq [24]uint64
		var hits, last uint64
		var pending []load // predicted loads awaiting verification, oldest first
		verify := func(n int) {
			for ; n > 0; n-- {
				l := pending[0]
				pending = pending[1:]
				c.p.Update(l.ctx, l.actual, l.pred)
			}
		}
		for step := 0; step < 20000; step++ {
			if rng.Intn(1000) == 0 {
				verify(len(pending))
				put(c.p.Evictions() - last)
				last = c.p.Evictions()
				c.p.Reset()
			}
			i := rng.Intn(len(seq))
			if rng.Intn(2) == 0 {
				i %= 6 // hot loads earn usefulness that cold ones lack
			}
			seq[i]++
			ctx := Context{PC: 0x40 + 8*uint64(i), Addr: 0x1000 + 64*uint64(i%7)}
			ctx.PID = uint64(rng.Intn(2))
			if rng.Intn(16) == 0 {
				ctx.Tag = 1
			}
			var actual uint64
			switch i % 4 {
			case 0: // constant, with a rare change
				actual = 100 + uint64(i)
				if rng.Intn(32) == 0 {
					actual++
				}
			case 1: // strided
				actual = 5000 + 3*seq[i]
			case 2: // alternating
				actual = 7 + seq[i]%2
			default: // noisy
				actual = uint64(rng.Intn(3))
			}
			pred := c.p.Predict(ctx)
			if pred.Hit {
				hits++
				put(1)
				put(pred.Value)
			} else {
				put(0)
			}
			// Verify out of order with the predictions, as the pipeline
			// does: up to three loads stay in flight.
			pending = append(pending, load{ctx, actual, pred})
			verify(len(pending) - rng.Intn(4))
		}
		verify(len(pending))
		put(c.p.Evictions() - last)
		if hits == 0 || c.p.Evictions() == 0 {
			t.Errorf("%s: %d predictions and %d evictions: the stream misses a path", c.name, hits, c.p.Evictions())
		}
		got[c.name] = d.Sum(got[c.name])
	}
	for name, w := range want {
		sum := sha256.Sum256(got[name])
		if g := hex.EncodeToString(sum[:]); g != w {
			t.Errorf("%s: stream digest %s, want %s", name, g, w)
		}
	}
}
