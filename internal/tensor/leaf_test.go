package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// leafDraw returns a value source: ordinary normals, or, when special,
// specialFloat's mix plus two NaN payloads of either sign, so a lane that
// picks the wrong operand of a NaN shows.
func leafDraw(rng *rand.Rand, special bool) func() float32 {
	return func() float32 {
		if !special {
			return float32(rng.NormFloat64())
		}
		switch rng.Intn(10) {
		case 0:
			return math.Float32frombits(0x7fc0beef)
		case 1:
			return math.Float32frombits(0xffc00001)
		default:
			return specialFloat(rng)
		}
	}
}

// leafSlice returns size drawn values starting off elements into their
// backing array, so the 16-byte loads see every alignment.
func leafSlice(draw func() float32, off, size int) []float32 {
	s := make([]float32, off+size)
	for i := range s {
		s[i] = draw()
	}
	return s[off:]
}

// requireBits fails unless got and want are the same bit patterns.
func requireBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: out[%d] = %v (%#x), Go form %v (%#x)",
				name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// fcRangeRef is the FC loop the four-neuron form replaced, one neuron at a
// time: the reference fcRange is held to.
func fcRangeRef(dst, in *T, w, bias []float32, inN, lo, hi int) {
	for o := lo; o < hi; o++ {
		row := w[o*inN : (o+1)*inN]
		x := in.Data[:len(row)]
		var s0, s1, s2, s3 float32
		i := 0
		for ; i+4 <= inN; i += 4 {
			s0 += float32(row[i] * x[i])
			s1 += float32(row[i+1] * x[i+1])
			s2 += float32(row[i+2] * x[i+2])
			s3 += float32(row[i+3] * x[i+3])
		}
		sum := s0 + s1 + s2 + s3
		for ; i < inN; i++ {
			sum += float32(row[i] * x[i])
		}
		if bias != nil {
			sum += bias[o]
		}
		dst.Data[o] = sum
	}
}

// Every DNN leaf must return its Go form's bits — NaN payloads and signed
// zeros included, with no NaN leeway, since pool, ReLU and leaky select
// values — on every length mod 4 (so the SSE steps and each Go tail
// length occur), slices starting 0–3 elements into their arrays, ordinary
// and special values (±0, ±Inf, NaN, subnormals). The FC range must match
// the one-neuron loop it replaced on ranges of one to nine neurons (the
// four-neuron step and the one-neuron rest) and inputs of every length mod
// 4; its sums may pick a different NaN payload only where two NaNs meet.
func TestDNNLeavesMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	t.Run("pool", func(t *testing.T) {
		for ow := 1; ow <= 20; ow++ {
			for trial := range 16 {
				draw := leafDraw(rng, trial%2 == 1)
				top, bot := leafSlice(draw, trial%4, 2*ow), leafSlice(draw, trial/4, 2*ow)
				want, got := make([]float32, ow), leafSlice(draw, (trial+1)%4, ow)
				poolRowGo(want, top, bot)
				poolRow(got, top, bot)
				requireBits(t, fmt.Sprintf("ow=%d trial %d", ow, trial), got, want)
			}
		}
	})
	t.Run("relu+leaky", func(t *testing.T) {
		for n := 0; n <= 21; n++ {
			for trial := range 16 {
				draw := leafDraw(rng, trial%2 == 1)
				v := leafSlice(draw, trial%4, n)
				want, got := append([]float32(nil), v...), v
				reluGo(want)
				relu(got)
				requireBits(t, fmt.Sprintf("relu n=%d trial %d", n, trial), got, want)

				alpha := float32(0.1)
				if trial >= 8 {
					alpha = draw()
				}
				v = leafSlice(draw, trial%4, n)
				want, got = append([]float32(nil), v...), v
				leakyGo(want, alpha)
				leaky(got, alpha)
				requireBits(t, fmt.Sprintf("leaky n=%d alpha=%v trial %d", n, alpha, trial), got, want)
			}
		}
	})
	t.Run("fc", func(t *testing.T) {
		for _, inN := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 16, 37, 64} {
			for rows := 1; rows <= 9; rows++ {
				for trial := range 8 {
					draw := leafDraw(rng, trial%2 == 1)
					in := &T{C: inN, H: 1, W: 1, Data: leafSlice(draw, trial%4, inN)}
					w := leafSlice(draw, (trial+1)%4, rows*inN)
					var bias []float32
					if trial < 4 {
						bias = leafSlice(draw, trial%4, rows)
					}
					want, got := NewVec(rows), NewVec(rows)
					fcRangeRef(want, in, w, bias, inN, 0, rows)
					fcRange(got, in, w, bias, inN, 0, rows)
					for i := range want.Data {
						if !sameBits(got.Data[i], want.Data[i]) {
							t.Fatalf("inN=%d rows=%d trial %d: out[%d] = %v (%#x), reference %v (%#x)", inN, rows, trial,
								i, got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
						}
					}
				}
			}
		}
	})
}

// FuzzDNNLeaves holds every DNN leaf to its Go form on fuzzer-chosen bit
// patterns — every operand element is four input bytes read as a float32,
// so NaNs, infinities, signed zeros and subnormals all occur — and
// fuzzer-chosen lengths, slice offsets and FC shapes.
func FuzzDNNLeaves(f *testing.F) {
	f.Add(uint8(9), uint8(5), []byte{0, 0, 128, 63, 0, 0, 192, 127, 1, 0, 0, 128, 0, 0, 0, 128})
	f.Add(uint8(200), uint8(37), []byte("dnn leaves"))
	f.Fuzz(func(t *testing.T, shape, off uint8, data []byte) {
		next := 0
		word := func() float32 {
			next++
			if len(data) < 4 {
				return float32(next%7) - 3
			}
			o := 4 * next % (len(data) - 3)
			return math.Float32frombits(binary.LittleEndian.Uint32(data[o:]))
		}
		n, o1, o2 := 1+int(shape)%23, int(off)%4, int(off/4)%4

		top, bot := leafSlice(word, o1, 2*n), leafSlice(word, o2, 2*n)
		want, got := make([]float32, n), make([]float32, n)
		poolRowGo(want, top, bot)
		poolRow(got, top, bot)
		requireBits(t, fmt.Sprintf("pool ow=%d", n), got, want)

		v := leafSlice(word, o1, n)
		want, got = append([]float32(nil), v...), v
		reluGo(want)
		relu(got)
		requireBits(t, fmt.Sprintf("relu n=%d", n), got, want)

		alpha := word()
		v = leafSlice(word, o2, n)
		want, got = append([]float32(nil), v...), v
		leakyGo(want, alpha)
		leaky(got, alpha)
		requireBits(t, fmt.Sprintf("leaky n=%d alpha=%v", n, alpha), got, want)

		rows := 1 + int(shape/23)%9
		in := &T{C: n, H: 1, W: 1, Data: leafSlice(word, o1, n)}
		w, bias := leafSlice(word, o2, rows*n), leafSlice(word, 0, rows)
		fcWant, fcGot := NewVec(rows), NewVec(rows)
		fcRangeRef(fcWant, in, w, bias, n, 0, rows)
		fcRange(fcGot, in, w, bias, n, 0, rows)
		for i := range fcWant.Data {
			if !sameBits(fcGot.Data[i], fcWant.Data[i]) {
				t.Fatalf("fc inN=%d rows=%d: out[%d] = %#x, reference %#x",
					n, rows, i, math.Float32bits(fcGot.Data[i]), math.Float32bits(fcWant.Data[i]))
			}
		}
	})
}

// BenchmarkDNNLeaves times each leaf beside its Go form on the native
// networks' shapes: the pool over a 16×16×16 map (TinyYOLO(64)'s second
// pool), the FC head's 1024→64 layer as sixteen four-neuron blocks, and
// ReLU and leaky over 4096 floats, which a copy restores each iteration
// (both forms pay it). Inputs are normal-range: subnormal operands time
// the CPU's microcode assists, not the kernel. Off amd64 both forms are
// the Go loop.
func BenchmarkDNNLeaves(b *testing.B) {
	rng := rand.New(rand.NewSource(67))
	draw := func() float32 { return float32(rng.NormFloat64()) }
	pool := New(16, 16, 16)
	for i := range pool.Data {
		pool.Data[i] = draw()
	}
	pooled := New(16, 8, 8)
	poolWith := func(row func(o, top, bot []float32)) {
		for c := range 16 {
			plane := pool.Data[c*256:]
			for oy := range 8 {
				row(pooled.Data[(c*8+oy)*8:][:8], plane[32*oy:][:16], plane[32*oy+16:][:16])
			}
		}
	}
	x, w := leafSlice(draw, 0, 1024), leafSlice(draw, 0, 64*1024)
	var s [4][4]float32
	fcWith := func(dot func(s *[4][4]float32, w, x []float32)) {
		for o := 0; o < 64; o += 4 {
			dot(&s, w[o*1024:(o+4)*1024], x)
		}
	}
	src, act := leafSlice(draw, 0, 4096), make([]float32, 4096)
	for _, bm := range []struct {
		name string
		fn   func()
	}{
		{"pool/sse", func() { poolWith(poolRow) }},
		{"pool/go", func() { poolWith(poolRowGo) }},
		{"fc/sse", func() { fcWith(fcDot4) }},
		{"fc/go", func() { fcWith(fcDot4Go) }},
		{"relu/sse", func() { copy(act, src); relu(act) }},
		{"relu/go", func() { copy(act, src); reluGo(act) }},
		{"leaky/sse", func() { copy(act, src); leaky(act, 0.1) }},
		{"leaky/go", func() { copy(act, src); leakyGo(act, 0.1) }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			for b.Loop() {
				bm.fn()
			}
		})
	}
}
