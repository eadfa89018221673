// Package stats provides the deterministic statistics substrate used across
// the simulator: seeded random number generation, streaming latency
// distributions, quantile estimation, and fixed-width histograms.
//
// Every stochastic element of the reproduction (scene generation, platform
// jitter, relocalization events) draws from an explicitly seeded RNG so that
// all experiments are reproducible bit-for-bit.
package stats

import "math/rand"

// RNG is a deterministic random source with the distribution helpers the
// simulator needs. It wraps math/rand with an explicit seed; the zero value
// is not usable — construct with NewRNG.
type RNG struct {
	src *rand.Rand
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{src: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Uniform returns a uniform value in [lo,hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Normal returns a normal sample with the given mean and standard deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.src.Float64() < p }
