package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is the distribution of one metric's samples: the median, the
// quartiles and the sample count.
type summary struct {
	N              int
	Median, Q1, Q3 float64
}

// summarize computes the median and quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(n=4), the
// convention the benchmark's spread checks are defined in, so the
// quartiles printed here are the ones a reader recomputes from the
// samples. A single sample is its own median and quartiles.
func summarize(xs []float64) summary {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return summary{}
	case 1:
		return summary{N: 1, Median: s[0], Q1: s[0], Q3: s[0]}
	}
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// quantile interpolates the p-quantile of the sorted sample s (at least
// two values) at position p*(n+1), exactly as Python's exclusive method
// does: the bracketing pair is clamped to the first or last two
// samples, and positions outside them extrapolate linearly.
func quantile(s []float64, p float64) float64 {
	pos := p * float64(len(s)+1)
	j := int(math.Floor(pos))
	j = max(1, min(j, len(s)-1))
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail estimate resting on fewer is noise.
const minBeyond = 10

// percentile returns the p-quantile of xs, or an error when fewer than
// minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	// The epsilon keeps 100 samples' p90 (9.999... in floating point)
	// at its true 10 beyond.
	if beyond := float64(len(xs))*(1-p) + 1e-9; beyond < minBeyond || len(xs) < 2 {
		return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, need %d", 100*p, len(xs), beyond, minBeyond)
	}
	return quantile(sorted(xs), p), nil
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the summary median of xs.
func median(xs []float64) float64 { return summarize(xs).Median }
