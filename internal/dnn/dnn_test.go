package dnn

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"adsim/internal/tensor"
)

func TestConvShapeAndCost(t *testing.T) {
	c := NewConv(16, 3, 1, 1, Leaky, 1)
	in := Shape{C: 8, H: 32, W: 32}
	out := c.OutShape(in)
	if out != (Shape{16, 32, 32}) {
		t.Fatalf("out shape %v", out)
	}
	cost := c.CostAt(in)
	wantMACs := int64(16 * 8 * 9 * 32 * 32)
	if cost.MACs != wantMACs || cost.ConvMACs != wantMACs || cost.FCMACs != 0 {
		t.Errorf("cost %+v, want MACs=%d", cost, wantMACs)
	}
	if cost.WeightBytes != 4*16*8*9 {
		t.Errorf("weight bytes %d", cost.WeightBytes)
	}
}

func TestConvStrideShape(t *testing.T) {
	c := NewConv(4, 3, 2, 1, Linear, 1)
	out := c.OutShape(Shape{C: 1, H: 9, W: 9})
	if out != (Shape{4, 5, 5}) {
		t.Fatalf("stride-2 shape %v, want 4x5x5", out)
	}
}

func TestFCShapeAndCost(t *testing.T) {
	f := NewFC(10, Linear, 1)
	in := Shape{C: 4, H: 2, W: 2}
	if f.OutShape(in) != (Shape{10, 1, 1}) {
		t.Fatal("fc out shape wrong")
	}
	cost := f.CostAt(in)
	if cost.MACs != 160 || cost.FCMACs != 160 || cost.ConvMACs != 0 {
		t.Errorf("fc cost %+v", cost)
	}
	if cost.WeightBytes != 640 {
		t.Errorf("fc weight bytes %d", cost.WeightBytes)
	}
}

func TestPoolShape(t *testing.T) {
	p := NewMaxPool(2, 2)
	if p.OutShape(Shape{3, 8, 8}) != (Shape{3, 4, 4}) {
		t.Fatal("pool shape wrong")
	}
}

func TestLayerNames(t *testing.T) {
	if NewConv(64, 3, 2, 1, Leaky, 1).Name() != "conv3-64/2" {
		t.Error("conv name wrong")
	}
	if NewMaxPool(2, 2).Name() != "maxpool2/2" {
		t.Error("pool name wrong")
	}
	if NewFC(4096, ReLU, 1).Name() != "fc-4096" {
		t.Error("fc name wrong")
	}
}

func TestConstructorsPanicOnBadArgs(t *testing.T) {
	cases := []func(){
		func() { NewConv(0, 3, 1, 1, Linear, 1) },
		func() { NewConv(8, 3, 0, 1, Linear, 1) },
		func() { NewMaxPool(0, 2) },
		func() { NewFC(0, Linear, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestNetworkValidation(t *testing.T) {
	_, err := NewNetwork("bad", Shape{C: 1, H: 4, W: 4},
		NewMaxPool(2, 2), // 2x2
		NewMaxPool(2, 2), // 1x1
		NewMaxPool(2, 2), // 0x0 -> invalid
	)
	if err == nil {
		t.Error("network producing empty shape should be rejected")
	}
}

func TestNetworkCostsSumLayers(t *testing.T) {
	n := MustNetwork("t", Shape{C: 1, H: 8, W: 8},
		NewConv(4, 3, 1, 1, Leaky, 1),
		NewMaxPool(2, 2),
		NewFC(10, Linear, 2),
	)
	var sum Cost
	for _, c := range n.LayerCosts() {
		sum = sum.Add(c)
	}
	if sum != n.Cost() {
		t.Errorf("layer cost sum %+v != network cost %+v", sum, n.Cost())
	}
}

func TestNetworkForwardShapes(t *testing.T) {
	n := MustNetwork("t", Shape{C: 1, H: 16, W: 16},
		NewConv(4, 3, 1, 1, Leaky, 1),
		NewMaxPool(2, 2),
		NewConv(8, 3, 1, 1, Leaky, 2),
		NewMaxPool(2, 2),
		NewFC(12, SigmoidAct, 3),
	)
	in := tensor.New(1, 16, 16)
	for i := range in.Data {
		in.Data[i] = float32(i%7) / 7
	}
	out := n.Forward(in)
	want := n.OutShape()
	if out.C != want.C || out.H != want.H || out.W != want.W {
		t.Fatalf("forward shape %v, want %v", out, want)
	}
	for _, v := range out.Data {
		if v < 0 || v > 1 {
			t.Fatalf("sigmoid output %v out of range", v)
		}
	}
}

func TestForwardDeterministic(t *testing.T) {
	build := func() *Network {
		return MustNetwork("t", Shape{C: 1, H: 16, W: 16},
			NewConv(4, 3, 1, 1, Leaky, 11),
			NewFC(5, Linear, 12),
		)
	}
	in := tensor.New(1, 16, 16)
	in.Fill(0.5)
	a := build().Forward(in)
	b := build().Forward(in)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same-seed networks produced different outputs")
		}
	}
}

func TestDifferentSeedsDifferentWeights(t *testing.T) {
	in := tensor.New(1, 8, 8)
	in.Fill(1)
	a := NewConv(4, 3, 1, 1, Linear, 1).Forward(in, &Scratch{})
	b := NewConv(4, 3, 1, 1, Linear, 2).Forward(in, &Scratch{})
	same := true
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical conv outputs")
	}
}

func TestYOLOv2Profile(t *testing.T) {
	n := YOLOv2(416)
	out := n.OutShape()
	// 416 / 2^5 = 13: the classic 13x13 YOLOv2 grid.
	if out.H != 13 || out.W != 13 {
		t.Errorf("yolov2 grid %dx%d, want 13x13", out.H, out.W)
	}
	c := n.Cost()
	gmacs := float64(c.MACs) / 1e9
	// Darknet reports ~29.4 BFLOPs (2 ops per MAC) for YOLOv2-416, i.e.
	// ~14.7 GMACs. Our four-class head trims a little; accept 10-20.
	if gmacs < 10 || gmacs > 20 {
		t.Errorf("yolov2 = %.2f GMACs, expected ~14.7", gmacs)
	}
	if c.ConvMACs != c.MACs-poolMACs(n) {
		t.Errorf("conv MACs accounting inconsistent")
	}
}

func poolMACs(n *Network) int64 {
	var total int64
	shape := n.Input
	for _, l := range n.Layers {
		if _, ok := l.(*MaxPool); ok {
			total += l.CostAt(shape).MACs
		}
		shape = l.OutShape(shape)
	}
	return total
}

func TestGOTURNProfile(t *testing.T) {
	tower := GOTURNTower(227)
	head := GOTURNHead(tower.OutShape())
	c := TrackerCost(tower, head)
	// GOTURN's head is FC-dominated: three fc-4096 + fc-4 over an 18432-d
	// concat input: ~92M FC macs... check weights ~350MB? No: 18432*4096 +
	// 4096*4096*2 + 4096*4 ≈ 109M params ≈ 437MB fp32. The paper-relevant
	// property asserted here: FC weights dominate total weight bytes.
	headBytes := head.Cost().WeightBytes
	if headBytes < c.WeightBytes/2 {
		t.Errorf("FC head bytes %d should dominate total %d", headBytes, c.WeightBytes)
	}
	if tower.OutShape() != (Shape{256, 6, 6}) {
		t.Errorf("tower out %v, want 256x6x6 (AlexNet pool5)", tower.OutShape())
	}
}

func TestTrackerCostDoublesTower(t *testing.T) {
	tower := TinyTrackerTower(32)
	head := TinyTrackerHead(tower.OutShape())
	c := TrackerCost(tower, head)
	if c.MACs != 2*tower.Cost().MACs+head.Cost().MACs {
		t.Error("tracker cost should double tower MACs")
	}
	if c.WeightBytes != tower.Cost().WeightBytes+head.Cost().WeightBytes {
		t.Error("tracker weights should count shared tower once")
	}
}

func TestTinyNetsRunNatively(t *testing.T) {
	det := TinyYOLO(64)
	in := tensor.New(1, 64, 64)
	out := det.Forward(in)
	if out.C != DetCellDepth || out.H != 4 || out.W != 4 {
		t.Errorf("tiny yolo out %v", out)
	}

	tower := TinyTrackerTower(32)
	a := tower.Forward(tensor.New(1, 32, 32))
	b := tower.Forward(tensor.New(1, 32, 32))
	concat := tensor.NewVec(a.Len() + b.Len())
	copy(concat.Data, a.Data)
	copy(concat.Data[a.Len():], b.Data)
	head := TinyTrackerHead(tower.OutShape())
	box := head.Forward(concat)
	if box.Len() != 4 {
		t.Errorf("tracker head output len %d, want 4", box.Len())
	}
}

func TestCostScale(t *testing.T) {
	c := Cost{MACs: 100, WeightBytes: 40, ActBytes: 80, ConvMACs: 90, FCMACs: 10}
	s := c.Scale(2)
	if s.MACs != 200 || s.ActBytes != 160 || s.ConvMACs != 180 {
		t.Errorf("scale wrong: %+v", s)
	}
	if s.WeightBytes != 40 {
		t.Error("weight bytes must not scale with resolution")
	}
	if s.FCMACs != 10 {
		t.Error("FC MACs must not scale with resolution")
	}
}

// Property: Cost.Add is commutative and associative on small values.
func TestCostAddProperty(t *testing.T) {
	f := func(a, b, c uint32) bool {
		x := Cost{MACs: int64(a), WeightBytes: int64(b), ActBytes: int64(c)}
		y := Cost{MACs: int64(c), WeightBytes: int64(a), ActBytes: int64(b)}
		z := Cost{MACs: int64(b), WeightBytes: int64(c), ActBytes: int64(a)}
		if x.Add(y) != y.Add(x) {
			return false
		}
		return x.Add(y).Add(z) == x.Add(y.Add(z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: conv output shape is positive whenever the standard shape
// formula says it should be.
func TestConvShapeProperty(t *testing.T) {
	f := func(k8, s8, p8, h8 uint8) bool {
		k := int(k8)%5 + 1
		s := int(s8)%3 + 1
		p := int(p8) % 3
		h := int(h8)%40 + k // ensure h >= k
		c := NewConv(4, k, s, p, Linear, 1)
		out := c.OutShape(Shape{C: 2, H: h, W: h})
		wantH := (h+2*p-k)/s + 1
		return out.H == wantH && out.W == wantH && out.C == 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestShapeString(t *testing.T) {
	if (Shape{3, 416, 416}).String() != "3x416x416" {
		t.Error("shape string wrong")
	}
}

// TestForwardConcurrentAndWorkerInvariant checks the two guarantees the
// parallel tracker pool, the pipelined runner and a fleet's vehicles sharing
// one network rely on: concurrent Forward calls through one shared network
// are safe (lazy weight init is guarded), and the result is
// bitwise-identical for any executor width. Widths are instance-scoped
// executors — no global mutation, no test-order sensitivity.
func TestForwardConcurrentAndWorkerInvariant(t *testing.T) {
	build := func() *Network {
		return MustNetwork("t", Shape{C: 1, H: 16, W: 16},
			NewConv(8, 3, 1, 1, Leaky, 11),
			NewMaxPool(2, 2),
			NewConv(16, 3, 1, 1, Leaky, 12),
			NewFC(32, ReLU, 13),
		)
	}
	in := tensor.New(1, 16, 16)
	for i := range in.Data {
		in.Data[i] = float32(i%7) / 7
	}

	ref := NewExecutor(1).Forward(build(), in, &Scratch{})

	exec := NewExecutor(4)
	net := build() // fresh net: weights lazily initialized under contention
	const goroutines = 8
	outs := make([]*tensor.T, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			outs[g] = exec.Forward(net, in, &Scratch{})
		}(g)
	}
	wg.Wait()
	for g, out := range outs {
		if out.Len() != ref.Len() {
			t.Fatalf("goroutine %d: len %d != %d", g, out.Len(), ref.Len())
		}
		for i := range out.Data {
			if out.Data[i] != ref.Data[i] {
				t.Fatalf("goroutine %d: elem %d = %v, serial single-worker %v",
					g, i, out.Data[i], ref.Data[i])
			}
		}
	}
}

// Executor worker counts are private to each instance, and the default
// follows GOMAXPROCS (not NumCPU): under GOMAXPROCS=1 on a multi-core host
// a default executor must not fan conv layers out over goroutines that
// cannot run in parallel.
func TestExecutorWorkersInstanceScoped(t *testing.T) {
	a, b, c := NewExecutor(3), NewExecutor(0), NewExecutor(-5)
	if a.Workers() != 3 {
		t.Errorf("a.Workers = %d, want 3", a.Workers())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if b.Workers() != 1 || c.Workers() != 1 {
		t.Errorf("default Workers = %d, %d under GOMAXPROCS=1, want 1", b.Workers(), c.Workers())
	}
	runtime.GOMAXPROCS(4)
	if b.Workers() != 4 {
		t.Errorf("default Workers = %d under GOMAXPROCS=4, want 4", b.Workers())
	}
	if a.Workers() != 3 {
		t.Errorf("a.Workers = %d perturbed by GOMAXPROCS", a.Workers())
	}
}
