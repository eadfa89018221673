package stats

import (
	"fmt"
	"math"
	"sort"
)

// DefaultWindowCap is the window capacity used when NewWindow is given a
// non-positive capacity. It is sized so the paper's 99.99th-percentile tail
// is resolvable from the window alone (≥ 2/(1-0.9999) samples beyond the
// quantile) with headroom. It is a cap, not an up-front cost: a window
// holds 8 bytes per sample seen, up to 256 KiB.
const DefaultWindowCap = 1 << 15 // 32768

// Window is a bounded streaming variant of Distribution: it retains only
// the most recent capacity samples in a ring buffer, so folding a sample in
// is O(1) amortized and memory is proportional to the samples seen, up to
// the capacity, no matter how long the stream runs. The ring's backing array
// grows by doubling (clipped to the capacity) while the window fills, so a
// short stream pays for what it observed, not for the full tail window. It
// is the store behind the live constraint monitor, where Distribution's
// retain-everything + re-sort-on-query behaviour is too expensive for a
// per-frame hot path.
//
// Quantile queries sort a scratch copy of the window lazily and cache the
// order until the next Add, so a burst of queries between folds costs one
// O(k log k) sort of the bounded window (k = capacity), never a sort of the
// whole stream. Quantile interpolation is identical to Distribution's: when
// the window has not yet wrapped, Window and Distribution agree exactly on
// the same samples.
//
// Window additionally tracks lifetime aggregates (TotalN, TotalSum,
// TotalMean) over every sample ever folded in, which windowed eviction does
// not disturb. Not safe for concurrent use; wrap it (telemetry.Collector
// does).
type Window struct {
	buf      []float64 // ring storage; len is the samples held (≤ capacity)
	capacity int       // ring size once full
	head     int       // next write position
	sum      kahanSum  // compensated sum of the samples currently held
	totalN   int64     // lifetime samples observed
	totalSum float64   // lifetime sum
	scratch  []float64 // sorted copy of the window, valid when !dirty
	dirty    bool
}

// kahanSum is a Neumaier-compensated float64 accumulator: fold errors are
// carried in a second term instead of being discarded, so long add (and
// add/subtract) streams cannot drift arbitrarily far from the true sum.
// Distribution and Window share it, which keeps their means bitwise-equal
// over the same sample sequence.
type kahanSum struct{ sum, comp float64 }

// fold accumulates v (Neumaier's variant, which also handles |v| exceeding
// |sum|).
func (k *kahanSum) fold(v float64) {
	t := k.sum + v
	if math.Abs(k.sum) >= math.Abs(v) {
		k.comp += (k.sum - t) + v
	} else {
		k.comp += (v - t) + k.sum
	}
	k.sum = t
}

// value returns the compensated total.
func (k *kahanSum) value() float64 { return k.sum + k.comp }

// NewWindow returns an empty window holding the most recent capacity
// samples; capacity <= 0 selects DefaultWindowCap.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		capacity = DefaultWindowCap
	}
	return &Window{capacity: capacity}
}

// Cap reports the window capacity.
func (w *Window) Cap() int { return w.capacity }

// Add folds one sample into the window, evicting the oldest sample once the
// window is full. Amortized O(1): while the window fills, a full backing
// array is replaced by one twice its size (never beyond the capacity);
// once full, Add allocates nothing.
//
// The running sum is Neumaier-compensated and additionally recomputed from
// the ring every time the write position wraps, so the add/subtract updates
// across evictions cannot drift arbitrarily far from the true window sum
// over long streams (each wrap resets accumulated error; compensation
// bounds it in between).
func (w *Window) Add(v float64) {
	if len(w.buf) == w.capacity {
		w.sum.fold(-w.buf[w.head])
		w.buf[w.head] = v
	} else {
		// Not yet wrapped: head == len(buf).
		if len(w.buf) == cap(w.buf) {
			grown := min(w.capacity, max(8, 2*cap(w.buf)))
			w.buf = append(make([]float64, 0, grown), w.buf...)
		}
		w.buf = append(w.buf, v)
	}
	w.head++
	w.sum.fold(v)
	if w.head == w.capacity {
		w.head = 0
		w.recompute()
	}
	w.totalN++
	w.totalSum += v
	w.dirty = true
}

// recompute re-derives the compensated sum from the ring contents alone.
func (w *Window) recompute() {
	w.sum = kahanSum{}
	for _, v := range w.buf {
		w.sum.fold(v)
	}
}

// N reports the number of samples currently in the window.
func (w *Window) N() int { return len(w.buf) }

// TotalN reports the lifetime number of samples folded in.
func (w *Window) TotalN() int64 { return w.totalN }

// TotalSum reports the lifetime sum of all samples folded in.
func (w *Window) TotalSum() float64 { return w.totalSum }

// Mean returns the mean of the samples currently in the window, or 0 when
// empty.
func (w *Window) Mean() float64 {
	if len(w.buf) == 0 {
		return 0
	}
	return w.sum.value() / float64(len(w.buf))
}

// TotalMean returns the lifetime mean over every sample ever folded in.
func (w *Window) TotalMean() float64 {
	if w.totalN == 0 {
		return 0
	}
	return w.totalSum / float64(w.totalN)
}

// Min returns the smallest sample in the window, or 0 when empty.
func (w *Window) Min() float64 {
	if len(w.buf) == 0 {
		return 0
	}
	return w.ordered()[0]
}

// Max returns the largest sample in the window, or 0 when empty.
func (w *Window) Max() float64 {
	if len(w.buf) == 0 {
		return 0
	}
	s := w.ordered()
	return s[len(s)-1]
}

// Quantile returns the q-th quantile (q in [0,1]) of the samples currently
// in the window, using the same linear interpolation between order
// statistics as Distribution.Quantile. Returns 0 when empty.
func (w *Window) Quantile(q float64) float64 {
	if len(w.buf) == 0 {
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

// P99 is shorthand for Quantile(0.99).
func (w *Window) P99() float64 { return w.Quantile(0.99) }

// P9999 is shorthand for Quantile(0.9999), the paper's tail-latency metric.
func (w *Window) P9999() float64 { return w.Quantile(0.9999) }

// Summary formats the window like Distribution.Summary (over the windowed
// samples only).
func (w *Window) Summary() string {
	return fmt.Sprintf("mean=%.1f p99=%.1f p99.99=%.1f n=%d",
		w.Mean(), w.P99(), w.P9999(), w.N())
}

// ordered returns the window's samples sorted ascending, re-sorting the
// scratch buffer only when samples were folded in since the last query.
func (w *Window) ordered() []float64 {
	if !w.dirty && len(w.scratch) == len(w.buf) {
		return w.scratch
	}
	w.scratch = append(w.scratch[:0], w.buf...)
	sort.Float64s(w.scratch)
	w.dirty = false
	return w.scratch
}
