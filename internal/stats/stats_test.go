package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("Uniform(10,20) = %v out of range", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(4)
	n := 200000
	var sum, ss float64
	for i := 0; i < n; i++ {
		v := r.Normal(5, 2)
		sum += v
		ss += v * v
	}
	mean := sum / float64(n)
	variance := ss/float64(n) - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("normal mean = %v, want ~5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("normal stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(8)
	hits := 0
	n := 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if math.Abs(rate-0.25) > 0.01 {
		t.Errorf("bernoulli rate = %v, want ~0.25", rate)
	}
}

func TestDistributionBasics(t *testing.T) {
	d := NewDistribution(4)
	d.AddAll([]float64{4, 1, 3, 2})
	if d.N() != 4 {
		t.Fatalf("N = %d, want 4", d.N())
	}
	if d.Mean() != 2.5 {
		t.Errorf("Mean = %v, want 2.5", d.Mean())
	}
	if d.Min() != 1 || d.Max() != 4 {
		t.Errorf("Min/Max = %v/%v, want 1/4", d.Min(), d.Max())
	}
	if med := d.Quantile(0.5); med != 2.5 {
		t.Errorf("median = %v, want 2.5", med)
	}
}

func TestDistributionEmpty(t *testing.T) {
	var d Distribution
	if d.Mean() != 0 || d.Min() != 0 || d.Max() != 0 || d.Quantile(0.5) != 0 {
		t.Error("empty distribution should report zeros")
	}
}

func TestDistributionQuantileEndpoints(t *testing.T) {
	d := NewDistribution(3)
	d.AddAll([]float64{5, 10, 15})
	if d.Quantile(0) != 5 {
		t.Errorf("Quantile(0) = %v, want 5", d.Quantile(0))
	}
	if d.Quantile(1) != 15 {
		t.Errorf("Quantile(1) = %v, want 15", d.Quantile(1))
	}
	if d.Quantile(-0.5) != 5 || d.Quantile(1.5) != 15 {
		t.Error("out-of-range quantiles should clamp")
	}
}

func TestDistributionTail(t *testing.T) {
	d := NewDistribution(10000)
	for i := 0; i < 9999; i++ {
		d.Add(10)
	}
	d.Add(1000) // one outlier
	if d.P9999() <= 10 {
		t.Errorf("P9999 = %v, should exceed the bulk value", d.P9999())
	}
	if d.Max() != 1000 {
		t.Errorf("Max = %v, want 1000", d.Max())
	}
	if d.Quantile(0.5) != 10 {
		t.Errorf("median = %v, want 10", d.Quantile(0.5))
	}
}

func TestDistributionAddAfterQuantile(t *testing.T) {
	d := NewDistribution(4)
	d.AddAll([]float64{1, 2, 3})
	_ = d.Quantile(0.5) // forces sort
	d.Add(0.5)
	if d.Min() != 0.5 {
		t.Errorf("Min after post-sort Add = %v, want 0.5", d.Min())
	}
	if d.N() != 4 {
		t.Errorf("N = %d, want 4", d.N())
	}
}

// Property: quantiles are monotone in q and bounded by [Min, Max].
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		d := NewDistribution(len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			d.Add(v)
		}
		a, b := math.Abs(math.Mod(q1, 1)), math.Abs(math.Mod(q2, 1))
		if a > b {
			a, b = b, a
		}
		qa, qb := d.Quantile(a), d.Quantile(b)
		return qa <= qb && qa >= d.Min() && qb <= d.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: mean lies within [Min, Max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		d := NewDistribution(len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
			d.Add(v)
		}
		if d.N() == 0 {
			return true
		}
		const eps = 1e-9
		return d.Mean() >= d.Min()-eps-math.Abs(d.Min())*1e-9 &&
			d.Mean() <= d.Max()+eps+math.Abs(d.Max())*1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-5) // clamps into bucket 0
	h.Add(50) // clamps into bucket 9
	if h.Total() != 12 {
		t.Fatalf("Total = %d, want 12", h.Total())
	}
	if h.Buckets[0] != 2 || h.Buckets[9] != 2 {
		t.Errorf("clamping failed: first=%d last=%d", h.Buckets[0], h.Buckets[9])
	}
	lo, hi := h.BucketRange(3)
	if lo != 3 || hi != 4 {
		t.Errorf("BucketRange(3) = [%v,%v), want [3,4)", lo, hi)
	}
	if h.Render(20) == "" {
		t.Error("Render returned empty output")
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram(1,0,5) should panic")
		}
	}()
	NewHistogram(1, 0, 5)
}

func TestHistogramEmptyRender(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	if h.Render(10) != "(empty histogram)\n" {
		t.Errorf("empty render = %q", h.Render(10))
	}
}

func TestDistributionSummary(t *testing.T) {
	d := NewDistribution(1)
	d.Add(1)
	if s := d.Summary(); s == "" {
		t.Error("Summary empty")
	}
}
