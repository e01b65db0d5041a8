package main

import (
	"math"
	"testing"
)

// TestSummarizeMatchesPython pins summarize to Python's
// statistics.quantiles(xs, n=4) (the exclusive method), including its
// extrapolation on tiny samples.
func TestSummarizeMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, m, q3  float64
		wantLength int
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 10},
		{[]float64{3, 1, 2}, 1, 2, 3, 3},
		{[]float64{5, 1}, 0, 3, 6, 2},
		{[]float64{2.5, 9, 4, 7, 1, 8}, 2.125, 5.5, 8.25, 6},
		{[]float64{4}, 4, 4, 4, 1},
	} {
		s := summarize(tc.xs)
		if s.N != tc.wantLength || !near(s.Q1, tc.q1) || !near(s.Median, tc.m) || !near(s.Q3, tc.q3) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g n %d", tc.xs, s, tc.q1, tc.m, tc.q3, tc.wantLength)
		}
	}
	if s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s.spread(), (8.25-2.75)/5.5) {
		t.Errorf("spread = %g", s.spread())
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestPercentileRefusesThinTails checks that a percentile is reported
// only with at least ten samples beyond it.
func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{99, 0.9, false}, {100, 0.9, true}, {999, 0.99, false}, {1000, 0.99, true}, {1000, 0.999, false}, {1, 0.5, false},
	} {
		_, err := percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("percentile(%d samples, %g): err %v, want ok=%v", tc.n, tc.p, err, tc.ok)
		}
	}
	if v, err := percentile(seq(2000), 0.99); err != nil || !near(v, 0.99*2001) {
		t.Errorf("percentile(2000 samples, 0.99) = %g, %v; want %g", v, err, 0.99*2001)
	}
}
