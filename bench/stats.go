package main

import (
	"math"
	"sort"
)

// tailBeyondFloor is how many samples must lie beyond a reported
// percentile within ONE repetition for the percentile to count as an
// estimate (choosing-metrics §1: "the highest percentile that has at least
// ten samples beyond it").
const tailBeyondFloor = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1) and
// whether the sample supports it under the samples-beyond rule: at least
// tailBeyondFloor samples must rank strictly above the returned one. The
// value is returned either way so a short smoke run still prints a number;
// callers surface the flag. xs is not modified.
func percentile(xs []float64, q float64) (v float64, supported bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= tailBeyondFloor
}

// median returns the middle value of xs (mean of the two middle values for
// an even count). xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// estimate is a metric's value across the K repetitions of one run: the
// median is the reported value, min/max bound what the repetitions saw
// (each drives its own scene, so the spread is scene-to-scene variation
// plus host noise), and Reps keeps every per-repetition reading for the
// JSON report.
type estimate struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Reps   []float64 `json:"reps"`
}

// estimateOf folds per-repetition readings into an estimate.
func estimateOf(reps []float64) estimate {
	e := estimate{Median: median(reps), Min: math.NaN(), Max: math.NaN(), Reps: reps}
	for i, v := range reps {
		if i == 0 || v < e.Min {
			e.Min = v
		}
		if i == 0 || v > e.Max {
			e.Max = v
		}
	}
	return e
}

// relSpread is (max−min)/median of an estimate's repetitions.
func (e estimate) relSpread() float64 {
	if e.Median == 0 || math.IsNaN(e.Median) {
		return 0
	}
	return (e.Max - e.Min) / math.Abs(e.Median)
}

// worsening is how much b is worse than a as a share of a, signed so that
// a positive value is a regression in the metric's own direction.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		return -d
	}
	return d
}
