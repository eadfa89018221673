package stats

import (
	"math"
	"sort"
	"testing"
)

// TestWindowMatchesDistributionExactly is the satellite's core contract:
// while the window has not wrapped, Window must agree bit-for-bit with the
// exact Distribution on the same samples at every query.
func TestWindowMatchesDistributionExactly(t *testing.T) {
	const n = 5000
	rng := NewRNG(7)
	w := NewWindow(n)
	d := NewDistribution(n)
	for i := 0; i < n; i++ {
		v := math.Abs(rng.Normal(50, 20))
		w.Add(v)
		d.Add(v)
	}
	if w.N() != d.N() {
		t.Fatalf("window n=%d, distribution n=%d", w.N(), d.N())
	}
	if w.Mean() != d.Mean() {
		// Summation order is identical (insertion order), so this must be
		// exact, not approximate.
		t.Errorf("mean: window %v, distribution %v", w.Mean(), d.Mean())
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1} {
		if got, want := w.Quantile(q), d.Quantile(q); got != want {
			t.Errorf("quantile(%v): window %v, distribution %v", q, got, want)
		}
	}
	if w.Min() != d.Min() || w.Max() != d.Max() {
		t.Error("min/max disagree with distribution")
	}
	if w.P99() != d.P99() || w.P9999() != d.P9999() {
		t.Error("tail shorthands disagree with distribution")
	}
}

// TestWindowEviction checks the rolling semantics: only the most recent
// capacity samples answer queries, while lifetime aggregates keep counting.
func TestWindowEviction(t *testing.T) {
	w := NewWindow(4)
	for i := 1; i <= 10; i++ {
		w.Add(float64(i))
	}
	if w.N() != 4 {
		t.Fatalf("n=%d, want 4", w.N())
	}
	if w.Min() != 7 || w.Max() != 10 {
		t.Errorf("window holds [%v,%v], want [7,10]", w.Min(), w.Max())
	}
	if w.Mean() != 8.5 {
		t.Errorf("windowed mean = %v, want 8.5", w.Mean())
	}
	if w.Quantile(0.5) != 8.5 {
		t.Errorf("median = %v, want 8.5", w.Quantile(0.5))
	}
	if w.TotalN() != 10 {
		t.Errorf("total n = %d, want 10", w.TotalN())
	}
	if w.TotalSum() != 55 {
		t.Errorf("total sum = %v, want 55", w.TotalSum())
	}
	if w.TotalMean() != 5.5 {
		t.Errorf("total mean = %v, want 5.5", w.TotalMean())
	}
}

// TestWindowWrappedQuantileAgainstOracle re-checks quantiles after the ring
// wraps by rebuilding a Distribution over the same trailing window.
func TestWindowWrappedQuantileAgainstOracle(t *testing.T) {
	const capacity, total = 257, 2000
	rng := NewRNG(11)
	samples := make([]float64, total)
	w := NewWindow(capacity)
	for i := range samples {
		samples[i] = rng.Uniform(0, 100)
		w.Add(samples[i])
	}
	oracle := NewDistribution(capacity)
	oracle.AddAll(samples[total-capacity:])
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if got, want := w.Quantile(q), oracle.Quantile(q); got != want {
			t.Errorf("wrapped quantile(%v): window %v, oracle %v", q, got, want)
		}
	}
}

func TestWindowEmptyAndDefaults(t *testing.T) {
	w := NewWindow(0)
	if w.Cap() != DefaultWindowCap {
		t.Errorf("default capacity = %d, want %d", w.Cap(), DefaultWindowCap)
	}
	if w.Quantile(0.5) != 0 || w.Mean() != 0 || w.Min() != 0 || w.Max() != 0 {
		t.Error("empty window must answer 0")
	}
	if w.Summary() == "" {
		t.Error("empty summary")
	}
}

// TestWindowQueryDoesNotDisturbFolds guards the lazy-sort bookkeeping:
// alternating Add/Quantile must not corrupt the ring contents.
func TestWindowAlternatingAddQuery(t *testing.T) {
	w := NewWindow(8)
	d := NewDistribution(8)
	for i := 0; i < 8; i++ {
		v := float64((i * 37) % 11)
		w.Add(v)
		d.Add(v)
		if got, want := w.Quantile(0.5), d.Quantile(0.5); got != want {
			t.Fatalf("after %d adds: median %v, want %v", i+1, got, want)
		}
	}
}

func BenchmarkWindowAdd(b *testing.B) {
	w := NewWindow(DefaultWindowCap)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Add(float64(i % 1000))
	}
}

// BenchmarkWindowFoldAndQuery measures the live monitor's per-frame pattern
// (one fold, one tail query) on a full window — the hot path the satellite
// bounds.
func BenchmarkWindowFoldAndQuery(b *testing.B) {
	w := NewWindow(4096)
	for i := 0; i < 4096; i++ {
		w.Add(float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Add(float64(i % 1000))
		_ = w.P9999()
	}
}

// Regression for the running-sum drift bug: the window sum used to be a
// plain float64 updated by add/subtract on every eviction, so one huge
// sample poisoned the mean long after it left the window (1e16 + 1 == 1e16
// in float64, and the absorbed small samples stayed lost forever). The
// compensated sum plus the recompute-on-wrap must recover exactly.
func TestWindowMeanRecoversAfterHugeSample(t *testing.T) {
	w := NewWindow(8)
	w.Add(1e16)
	for i := 0; i < 100; i++ {
		w.Add(1.0)
	}
	if got := w.Mean(); got != 1.0 {
		t.Fatalf("window mean %v after the huge sample left, want exactly 1.0", got)
	}
}

// Long-stream drift: alternating large and small magnitudes for many times
// the window capacity must keep the windowed mean glued to the true mean of
// the current contents.
func TestWindowLongStreamNoDrift(t *testing.T) {
	w := NewWindow(64)
	rng := NewRNG(99)
	var all []float64
	for i := 0; i < 64*200; i++ {
		v := rng.Float64()
		if i%3 == 0 {
			v *= 1e12
		}
		w.Add(v)
		all = append(all, v)
	}
	// Oracle: sum the last 64 samples directly.
	var want float64
	for _, v := range all[len(all)-64:] {
		want += v
	}
	want /= float64(w.N())
	got := w.Mean()
	if math.Abs(got-want) > math.Abs(want)*1e-12 {
		t.Fatalf("windowed mean drifted: %v, oracle %v", got, want)
	}
}

// eagerWindow is the window as first written: the whole ring allocated up
// front, with a separate occupancy count. It is the reference the growing
// ring must match bit for bit.
type eagerWindow struct {
	buf      []float64
	head     int
	count    int
	sum      kahanSum
	totalN   int64
	totalSum float64
}

func (w *eagerWindow) Add(v float64) {
	if w.count == len(w.buf) {
		w.sum.fold(-w.buf[w.head])
	} else {
		w.count++
	}
	w.buf[w.head] = v
	w.head++
	w.sum.fold(v)
	if w.head == len(w.buf) {
		w.head = 0
		w.sum = kahanSum{}
		for _, v := range w.buf[:w.count] {
			w.sum.fold(v)
		}
	}
	w.totalN++
	w.totalSum += v
}

func (w *eagerWindow) Mean() float64 {
	if w.count == 0 {
		return 0
	}
	return w.sum.value() / float64(w.count)
}

// ordered sorts a fresh copy of the held samples, as the eager window's
// scratch did.
func (w *eagerWindow) ordered() []float64 {
	s := make([]float64, w.count)
	copy(s, w.buf[:w.count])
	sort.Float64s(s)
	return s
}

func (w *eagerWindow) Quantile(q float64) float64 {
	if w.count == 0 {
		return 0
	}
	s := w.ordered()
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// TestWindowMatchesEagerRing feeds the growing window and the eager
// reference the same streams — every length from empty to three turns of
// the ring, with ±Inf and NaN mixed in — and compares every query bitwise
// after every sample.
func TestWindowMatchesEagerRing(t *testing.T) {
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, capacity := range []int{1, 2, 3, 17} {
		for _, withSpecial := range []bool{false, true} {
			rng := NewRNG(int64(capacity))
			w := NewWindow(capacity)
			ref := &eagerWindow{buf: make([]float64, capacity)}
			for i := 0; i <= 3*capacity; i++ {
				if w.N() != ref.count || w.Cap() != capacity {
					t.Fatalf("cap %d after %d: n=%d cap=%d, want n=%d", capacity, i, w.N(), w.Cap(), ref.count)
				}
				wantMin, wantMax := 0.0, 0.0
				if ref.count > 0 {
					s := ref.ordered()
					wantMin, wantMax = s[0], s[len(s)-1]
				}
				if !same(w.Mean(), ref.Mean()) || !same(w.Min(), wantMin) || !same(w.Max(), wantMax) ||
					w.TotalN() != ref.totalN || !same(w.TotalSum(), ref.totalSum) {
					t.Fatalf("cap %d special %v after %d: mean/min/max/totals (%v %v %v %d %v), want (%v %v %v %d %v)",
						capacity, withSpecial, i, w.Mean(), w.Min(), w.Max(), w.TotalN(), w.TotalSum(),
						ref.Mean(), wantMin, wantMax, ref.totalN, ref.totalSum)
				}
				for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.9999, 1} {
					if got, want := w.Quantile(q), ref.Quantile(q); !same(got, want) {
						t.Fatalf("cap %d special %v after %d: quantile(%v) = %v, want %v", capacity, withSpecial, i, q, got, want)
					}
				}
				v := rng.Normal(50, 20)
				if withSpecial && i%4 == 1 {
					v = special[(i/4)%len(special)]
				}
				w.Add(v)
				ref.Add(v)
			}
		}
	}
}

// Alloc gate (run by `make alloc-gate`): once the window has wrapped, its
// backing array is exactly the capacity and a fold allocates nothing — a
// growth path that kept appending past the capacity would fail both.
func TestAllocWindowFull(t *testing.T) {
	for _, capacity := range []int{1, 17, 1000} {
		w := NewWindow(capacity)
		for i := 0; i < 2*capacity; i++ {
			w.Add(float64(i))
		}
		if allocs := testing.AllocsPerRun(100, func() { w.Add(1) }); allocs != 0 {
			t.Errorf("cap %d: Add on a full window allocates %v, want 0", capacity, allocs)
		}
		if cap(w.buf) != capacity {
			t.Errorf("cap %d: backing array holds %d samples", capacity, cap(w.buf))
		}
	}
}
