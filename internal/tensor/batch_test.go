package tensor

import (
	"math/rand"
	"testing"
)

// randBatch builds n same-shape random inputs plus shared conv weights.
func randBatch(seed int64, n int) (ins []*T, w, bias []float32, outC, k int) {
	rng := rand.New(rand.NewSource(seed))
	outC, k = 32, 3
	for b := 0; b < n; b++ {
		in := New(3, 40, 40)
		for i := range in.Data {
			in.Data[i] = float32(rng.NormFloat64())
		}
		ins = append(ins, in)
	}
	w = make([]float32, outC*ins[0].C*k*k)
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	bias = make([]float32, outC)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	return
}

// The batched kernels back dnn.ForwardBatch: each sample must
// come out bitwise-identical to its solo kernel, for any batch size and
// worker count.
func TestConvBatchBitwiseEqualSolo(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		for _, workers := range []int{1, 2, 4} {
			ins, w, bias, outC, k := randBatch(11, n)
			s := &Scratch{}
			dsts := make([]*T, n)
			for i := range dsts {
				dsts[i] = New(outC, ins[i].H, ins[i].W)
			}
			Conv2DIm2ColBatchInto(dsts, ins, w, bias, outC, k, 1, 1, workers, s)
			for i := range ins {
				want := Conv2DIm2ColParInto(nil, ins[i], w, bias, outC, k, 1, 1, 1, nil)
				for j := range want.Data {
					if dsts[i].Data[j] != want.Data[j] {
						t.Fatalf("n=%d workers=%d sample %d: out[%d] = %v, want %v",
							n, workers, i, j, dsts[i].Data[j], want.Data[j])
					}
				}
			}
		}
	}
}

func TestFCBatchBitwiseEqualSolo(t *testing.T) {
	ins, _, _, _, _ := randBatch(12, 4)
	outN := 16
	fcW := make([]float32, outN*ins[0].Len())
	rng := rand.New(rand.NewSource(13))
	for i := range fcW {
		fcW[i] = float32(rng.NormFloat64())
	}
	bias := make([]float32, outN)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	for _, workers := range []int{1, 3} {
		dsts := make([]*T, len(ins))
		for i := range dsts {
			dsts[i] = New(outN, 1, 1)
		}
		FullyConnectedBatchInto(dsts, ins, fcW, bias, outN, workers)
		for i := range ins {
			want := FullyConnectedParInto(nil, ins[i], fcW, bias, outN, 1)
			for j := range want.Data {
				if dsts[i].Data[j] != want.Data[j] {
					t.Fatalf("workers=%d sample %d: out[%d] = %v, want %v",
						workers, i, j, dsts[i].Data[j], want.Data[j])
				}
			}
		}
	}
}

// A batch must reject shape-mismatched samples loudly: silently batching
// different shapes would corrupt the shared padded input.
func TestConvBatchRejectsMixedShapes(t *testing.T) {
	ins, w, bias, outC, k := randBatch(14, 2)
	ins[1] = New(3, 10, 10)
	dsts := []*T{New(outC, 40, 40), New(outC, 10, 10)}
	defer func() {
		if recover() == nil {
			t.Fatal("mixed-shape batch did not panic")
		}
	}()
	Conv2DIm2ColBatchInto(dsts, ins, w, bias, outC, k, 1, 1, 1, nil)
}

// Warm batched calls are on the fleet's per-frame hot path and must not
// allocate at any worker count (see `make alloc-gate`).
func TestAllocConvBatchInto(t *testing.T) {
	ins, w, bias, outC, k := randBatch(15, 3)
	s := &Scratch{}
	dsts := make([]*T, len(ins))
	for i := range dsts {
		dsts[i] = New(outC, ins[i].H, ins[i].W)
	}
	allocGate(t, len(ins)*outC*ins[0].C*k*k*ins[0].H*ins[0].W, func(workers int) {
		Conv2DIm2ColBatchInto(dsts, ins, w, bias, outC, k, 1, 1, workers, s)
	})
}
