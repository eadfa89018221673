package main

import (
	"sync"
	"time"
)

// A yardstick is a fixed 2 ms of work that belongs to the benchmark and
// never changes: four small kernels shaped like the pipeline's hot loops (a
// float32 multiply-accumulate stream, an integer/branch loop, a direct 3×3
// convolution, a byte-image neighbour test) over private, preallocated
// buffers. The consumer of every CPU-bound repetition reads it on each
// yardstickEvery-th delivery; how long the host takes over it says how fast
// the host is *while that repetition runs*, and the repetition's times are
// scaled to the speed at which a reading takes yardstickNominal.
//
// Why: the sandbox's vCPUs share physical cores and caches with other
// tenants, and the speed they deliver moves by 20–30 % from second to
// second and from minute to minute (README.md, "Noise notes"). Ten
// 24-second runs of identical code spread 14–25 % on every raw timing;
// scaled per repetition they spread a few percent. The yardstick is frozen
// code, so nothing a later change does to the program under test moves it
// except through the caches they share, and the median over a
// repetition's readings ignores the minority that overlap a collection.
type yardstick struct {
	stream []float32 // 192 KB: L2-resident
	in     []float32 // 16 × 34 × 34 padded input
	weight []float32 // 16 × 16 × 3 × 3
	out    []float32 // 16 × 32 × 32
	image  []byte    // 512 × 256
	sinkF  float32   // the kernels' results, kept so no loop is dead code
	sinkU  uint64
}

const (
	// yardstickNominal is the reading that scales a time by 1: about what
	// a quiet 2-vCPU sandbox reads.
	yardstickNominal = 2 * time.Millisecond
	// yardstickEvery is the delivery stride between readings: ~3 % of a
	// solo consumer's time, the same on both sides of any comparison.
	yardstickEvery = 8
)

var (
	yardMu     sync.Mutex
	yardsticks []*yardstick
)

// yardstickFor returns vehicle v's yardstick. They are built once per
// process, so a repetition's set-up time and allocation count never
// include them.
func yardstickFor(v int) *yardstick {
	yardMu.Lock()
	defer yardMu.Unlock()
	for len(yardsticks) <= v {
		yardsticks = append(yardsticks, newYardstick(len(yardsticks)))
	}
	return yardsticks[v]
}

func newYardstick(salt int) *yardstick {
	y := &yardstick{
		stream: make([]float32, 48*1024),
		in:     make([]float32, 16*34*34),
		weight: make([]float32, 16*16*9),
		out:    make([]float32, 16*32*32),
		image:  make([]byte, 512*256),
	}
	for j := range y.stream {
		y.stream[j] = float32(j%97) * 0.01
	}
	for j := range y.in {
		y.in[j] = float32(j%13) * 0.1
	}
	for j := range y.weight {
		y.weight[j] = float32(j%7) * 0.01
	}
	x := uint32(12345 + salt)
	for j := range y.image {
		x = x*1664525 + 1013904223
		y.image[j] = byte(x >> 24)
	}
	return y
}

// read does the fixed work once on the calling goroutine, without
// allocating, and returns how long the host took over it.
func (y *yardstick) read() time.Duration {
	start := time.Now()

	// float32 multiply-accumulate over an L2-resident stream
	a := y.stream
	var s0, s1, s2, s3 float32
	for r := 0; r < 23; r++ {
		for j := 0; j+4 <= len(a); j += 4 {
			s0 += a[j] * 1.0001
			s1 += a[j+1] * 0.9999
			s2 += a[j+2] * 1.0002
			s3 += a[j+3] * 0.9998
		}
	}

	// integer shifts, xors and a data-dependent branch
	var u uint64
	x := uint64(len(a))
	for j := 0; j < 240_000; j++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			u += x & 0xff
		}
	}

	// direct 3×3 convolution, 16 → 16 channels at 32×32
	for oc := 0; oc < 16; oc++ {
		o := y.out[oc*1024:][:1024]
		clear(o)
		for ic := 0; ic < 16; ic++ {
			k := y.weight[(oc*16+ic)*9:][:9]
			plane := y.in[ic*34*34:][:34*34]
			for py := 0; py < 32; py++ {
				r0, r1, r2 := plane[py*34:][:34], plane[(py+1)*34:][:34], plane[(py+2)*34:][:34]
				row := o[py*32:][:32]
				for px := range row {
					row[px] += r0[px]*k[0] + r0[px+1]*k[1] + r0[px+2]*k[2] +
						r1[px]*k[3] + r1[px+1]*k[4] + r1[px+2]*k[5] +
						r2[px]*k[6] + r2[px+1]*k[7] + r2[px+2]*k[8]
				}
			}
		}
	}

	// byte image: compare each pixel with four neighbours at radius 3
	img := y.image
	for py := 3; py < 253; py++ {
		for px := 3; px < 509; px++ {
			p := int(img[py*512+px]) + 20
			n := 0
			if int(img[(py-3)*512+px]) > p {
				n++
			}
			if int(img[(py+3)*512+px]) > p {
				n++
			}
			if int(img[py*512+px-3]) > p {
				n++
			}
			if int(img[py*512+px+3]) > p {
				n++
			}
			if n >= 3 {
				u++
			}
		}
	}

	y.sinkF += s0 + s1 + s2 + s3 + y.out[0]
	y.sinkU += u
	return time.Since(start)
}

// hostSlowness turns a repetition's yardstick readings (ms) into the factor
// its times are divided by: 1 on a host at nominal speed, 1.25 on one that
// takes a quarter longer over the same work. No readings, no scaling.
func hostSlowness(readingsMs []float64) float64 {
	if len(readingsMs) == 0 {
		return 1
	}
	return median(readingsMs) / (yardstickNominal.Seconds() * 1e3)
}
