package stats

import (
	"fmt"
	"math"
	"sort"
)

// Distribution accumulates scalar samples (latencies in milliseconds, power
// in watts, ...) and answers summary queries: mean, min/max, arbitrary
// quantiles. Samples are retained, so quantiles are exact; the simulator's
// experiments run at most a few hundred thousand frames, for which exact
// retention is cheap and removes estimator error from the reproduction.
//
// The zero value is an empty distribution ready for use.
type Distribution struct {
	samples []float64
	sorted  bool
	sum     kahanSum
}

// NewDistribution returns an empty distribution with capacity for n samples.
func NewDistribution(n int) *Distribution {
	return &Distribution{samples: make([]float64, 0, n)}
}

// Add records one sample.
func (d *Distribution) Add(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
	d.sum.fold(v)
}

// AddAll records every sample in vs.
func (d *Distribution) AddAll(vs []float64) {
	for _, v := range vs {
		d.Add(v)
	}
}

// N reports the number of samples recorded.
func (d *Distribution) N() int { return len(d.samples) }

// Mean returns the arithmetic mean, or 0 for an empty distribution.
func (d *Distribution) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	return d.sum.value() / float64(len(d.samples))
}

// Min returns the smallest sample, or 0 for an empty distribution.
func (d *Distribution) Min() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[0]
}

// Max returns the largest sample, or 0 for an empty distribution.
func (d *Distribution) Max() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[len(d.samples)-1]
}

// Quantile returns the q-th quantile (q in [0,1]) using linear interpolation
// between order statistics. Quantile(0.5) is the median; Quantile(0.9999) is
// the paper's 99.99th-percentile tail metric. Returns 0 when empty.
func (d *Distribution) Quantile(q float64) float64 {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return d.Min()
	}
	if q >= 1 {
		return d.Max()
	}
	d.ensureSorted()
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return d.samples[lo]
	}
	frac := pos - float64(lo)
	return d.samples[lo]*(1-frac) + d.samples[hi]*frac
}

// P99 is shorthand for Quantile(0.99).
func (d *Distribution) P99() float64 { return d.Quantile(0.99) }

// P9999 is shorthand for Quantile(0.9999), the paper's tail-latency metric.
func (d *Distribution) P9999() float64 { return d.Quantile(0.9999) }

// Summary formats the distribution like the paper's figures: mean, P99 and
// P99.99 in the sample unit.
func (d *Distribution) Summary() string {
	return fmt.Sprintf("mean=%.1f p99=%.1f p99.99=%.1f n=%d",
		d.Mean(), d.P99(), d.P9999(), d.N())
}

func (d *Distribution) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}
