package dnn

import (
	"testing"

	"adsim/internal/tensor"
)

func TestBatchNormShapeAndCost(t *testing.T) {
	bn := NewBatchNorm(1)
	in := Shape{C: 4, H: 8, W: 8}
	if bn.OutShape(in) != in {
		t.Error("batchnorm must preserve shape")
	}
	c := bn.CostAt(in)
	if c.MACs != 256 || c.WeightBytes != 32 {
		t.Errorf("batchnorm cost %+v", c)
	}
	if bn.Name() != "batchnorm" {
		t.Error("name wrong")
	}
}

func TestBatchNormForward(t *testing.T) {
	bn := NewBatchNorm(1)
	in := tensor.New(2, 2, 2)
	in.Fill(1)
	out := bn.Forward(in, &Scratch{}, 1)
	if in.Data[0] != 1 {
		t.Error("batchnorm must not mutate its input")
	}
	// y = a*1 + b with a in [0.8,1.2], b in [-0.05,0.05].
	for _, v := range out.Data {
		if v < 0.7 || v > 1.3 {
			t.Fatalf("batchnorm output %v outside near-identity band", v)
		}
	}
	// Per-channel params: all elements of one channel transform equally.
	in2 := tensor.New(2, 2, 2)
	in2.Data = []float32{1, 2, 3, 4, 1, 2, 3, 4}
	out2 := bn.Forward(in2, &Scratch{}, 1)
	r0 := out2.Data[1] - out2.Data[0]
	r1 := out2.Data[2] - out2.Data[1]
	if r0 != r1 {
		t.Error("affine transform not linear within a channel")
	}
}

func TestReorgShapes(t *testing.T) {
	r := NewReorg(2)
	out := r.OutShape(Shape{C: 64, H: 26, W: 26})
	if out != (Shape{256, 13, 13}) {
		t.Fatalf("reorg shape %v, want 256x13x13", out)
	}
	if bad := r.OutShape(Shape{C: 4, H: 7, W: 8}); bad.H != 0 {
		t.Error("odd input should produce invalid shape")
	}
	if r.CostAt(Shape{C: 1, H: 4, W: 4}).MACs != 0 {
		t.Error("reorg should cost no MACs")
	}
}

func TestReorgPanicsOnBadStride(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewReorg(1) should panic")
		}
	}()
	NewReorg(1)
}

func TestReorgForwardPreservesValues(t *testing.T) {
	r := NewReorg(2)
	in := tensor.New(1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	out := r.Forward(in, &Scratch{}, 1)
	if out.C != 4 || out.H != 2 || out.W != 2 {
		t.Fatalf("reorg out %v", out)
	}
	// Every input value appears exactly once.
	seen := map[float32]int{}
	for _, v := range out.Data {
		seen[v]++
	}
	for i := range in.Data {
		if seen[float32(i)] != 1 {
			t.Fatalf("value %d appears %d times", i, seen[float32(i)])
		}
	}
	// Block (0,0) values {0,1,4,5} land in channels 0..3 at (0,0).
	if out.At(0, 0, 0) != 0 || out.At(1, 0, 0) != 1 || out.At(2, 0, 0) != 4 || out.At(3, 0, 0) != 5 {
		t.Errorf("reorg layout wrong: %v", out.Data)
	}
}

func TestGraphLinearEquivalence(t *testing.T) {
	// A graph with no branches must agree with the Network equivalent.
	net := MustNetwork("lin", Shape{C: 1, H: 16, W: 16},
		NewConv(4, 3, 1, 1, Leaky, 11),
		NewMaxPool(2, 2),
		NewFC(5, Linear, 12),
	)
	g := NewGraph("lin", Shape{C: 1, H: 16, W: 16})
	n := g.AddLayer(NewConv(4, 3, 1, 1, Leaky, 11), InputID)
	n = g.AddLayer(NewMaxPool(2, 2), n)
	g.AddLayer(NewFC(5, Linear, 12), n)

	if g.OutShape() != net.OutShape() {
		t.Fatalf("shapes differ: %v vs %v", g.OutShape(), net.OutShape())
	}
	if g.Cost() != net.Cost() {
		t.Fatalf("costs differ: %+v vs %+v", g.Cost(), net.Cost())
	}
}

func TestGraphConcat(t *testing.T) {
	g := NewGraph("cat", Shape{C: 2, H: 4, W: 4})
	a := g.AddLayer(NewConv(3, 1, 1, 0, Linear, 1), InputID)
	b := g.AddLayer(NewConv(5, 1, 1, 0, Linear, 2), InputID)
	g.AddConcat(a, b)
	out, err := g.Check()
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{8, 4, 4}) {
		t.Fatalf("concat shape %v, want 8x4x4", out)
	}
}

func TestGraphConcatMismatchRejected(t *testing.T) {
	g := NewGraph("bad", Shape{C: 1, H: 8, W: 8})
	a := g.AddLayer(NewConv(2, 1, 1, 0, Linear, 1), InputID)
	b := g.AddLayer(NewMaxPool(2, 2), InputID) // 4x4: spatial mismatch
	g.AddConcat(a, b)
	if _, err := g.Check(); err == nil {
		t.Error("spatial-mismatch concat accepted")
	}
}

func TestGraphEmptyRejected(t *testing.T) {
	if _, err := NewGraph("e", Shape{C: 1, H: 4, W: 4}).Check(); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestYOLOv2GraphProfile(t *testing.T) {
	g := YOLOv2Graph(416)
	out := g.OutShape()
	if out.H != 13 || out.W != 13 {
		t.Errorf("grid %dx%d, want 13x13", out.H, out.W)
	}
	if out.C != DetCellDepth*DetBoxesPerCell {
		t.Errorf("out channels %d", out.C)
	}
	full := g.Cost()
	plain := YOLOv2(416).Cost()
	// The passthrough's concat feeds 1280 channels (vs 1024) into the
	// penultimate conv, plus the 1x1/64 branch: ~2-3 GMACs extra.
	if full.MACs <= plain.MACs {
		t.Errorf("passthrough graph (%d MACs) should exceed the plain stack (%d)", full.MACs, plain.MACs)
	}
	if float64(full.MACs) > 1.3*float64(plain.MACs) {
		t.Errorf("passthrough overhead implausibly large: %d vs %d", full.MACs, plain.MACs)
	}
}
