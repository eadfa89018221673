package dnn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"adsim/internal/tensor"
	"adsim/internal/testutil"
)

func randInput(rng *rand.Rand, c, h, w int) *tensor.T {
	in := tensor.New(c, h, w)
	for i := range in.Data {
		in.Data[i] = float32(rng.NormFloat64())
	}
	return in
}

// The one solo loop must give the same bits whatever state its scratch is
// in and however many workers shard the kernels: a fresh throwaway arena
// (Network.Forward) against a reused, warm one at workers 1, 2 and 4. Any
// divergence means a buffer was reused while still live, or that sharding
// changed arithmetic.
func TestForwardScratchBitwiseEqualForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nets := map[string]*Network{
		"tiny-yolo":     TinyYOLO(32),
		"tracker-tower": TinyTrackerTower(32),
	}
	for name, net := range nets {
		in := randInput(rng, net.Input.C, net.Input.H, net.Input.W)
		want := net.Forward(in.Clone())
		for _, workers := range []int{1, 2, 4} {
			exec := NewExecutor(workers)
			var s Scratch
			for pass := 0; pass < 3; pass++ { // reused arena must stay stable
				got := exec.Forward(net, in.Clone(), &s)
				if got.C != want.C || got.H != want.H || got.W != want.W {
					t.Fatalf("%s: shape %v, want %v", name, got, want)
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("%s workers %d pass %d: out[%d] = %v, want %v (bitwise)",
							name, workers, pass, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// Satellite regression: Conv.params/FC.params used to re-seed (and therefore
// silently replace) the weights whenever the same layer saw a different
// input shape in between — each shape must get one stable parameter set.
func TestParamsStableAcrossInterleavedShapes(t *testing.T) {
	c := NewConv(4, 3, 1, 1, ReLU, 9)
	p8 := c.params(8)
	p16 := c.params(16)
	if &p8.w[0] == &p16.w[0] {
		t.Fatal("different input shapes share a weight buffer")
	}
	w0 := p8.w[0]
	if again := c.params(8); again != p8 || again.w[0] != w0 {
		t.Fatal("conv params re-seeded after an interleaved shape change")
	}
	if again := c.params(16); again != p16 {
		t.Fatal("conv params(16) lost its entry")
	}

	f := NewFC(4, Linear, 9)
	q8 := f.params(8)
	q16 := f.params(16)
	qw0 := q8.w[0]
	if again := f.params(8); again != q8 || again.w[0] != qw0 {
		t.Fatal("fc params re-seeded after an interleaved shape change")
	}
	if again := f.params(16); again != q16 {
		t.Fatal("fc params(16) lost its entry")
	}
}

// The forward pass itself must be stable when one network alternates
// between two input sizes on one warm scratch (the re-seeding bug made
// outputs change; a stale arena slot would too).
func TestForwardStableAcrossInterleavedInputSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := MustNetwork("probe", Shape{C: 1, H: 16, W: 16},
		NewConv(4, 3, 1, 1, ReLU, 9),
		NewFC(8, Linear, 10),
	)
	small := randInput(rng, 1, 16, 16)
	big := randInput(rng, 1, 24, 24)
	want := net.Forward(small.Clone())
	exec := NewExecutor(2)
	var s Scratch
	exec.Forward(net, small.Clone(), &s)
	exec.Forward(net, big.Clone(), &s) // different FC input length in between
	got := exec.Forward(net, small.Clone(), &s)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("out[%d] changed after an interleaved input size: %v vs %v",
				i, got.Data[i], want.Data[i])
		}
	}
}

// Concurrent forward passes with separate scratches must not interfere
// (run under -race as part of `make race`).
func TestForwardScratchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := TinyTrackerTower(32)
	in := randInput(rng, net.Input.C, net.Input.H, net.Input.W)
	want := net.Forward(in.Clone())

	exec := NewExecutor(1)
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s Scratch
			for iter := 0; iter < 10; iter++ {
				got := exec.Forward(net, in.Clone(), &s)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						fail <- "concurrent Forward diverged"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	if msg, ok := <-fail; ok {
		t.Fatal(msg)
	}
}

// Hold slots must survive a second forward pass through the same scratch —
// the tracker's two-branch concat depends on it.
func TestHoldSurvivesForwardPass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := TinyTrackerTower(32)
	in := randInput(rng, net.Input.C, net.Input.H, net.Input.W)

	exec := NewExecutor(1)
	var s Scratch
	a := exec.Forward(net, in.Clone(), &s)
	held := s.Hold(0, a.Len(), 1, 1)
	copy(held.Data, a.Data)
	snapshot := append([]float32(nil), held.Data...)
	exec.Forward(net, in.Clone(), &s) // ping-pong slots get overwritten
	for i, v := range snapshot {
		if held.Data[i] != v {
			t.Fatalf("hold slot clobbered by a later forward pass at [%d]", i)
		}
	}
}

// Alloc gate (run by `make alloc-gate`): a warm forward pass allocates
// nothing per frame, whether its kernels run one range or fan out. The
// worker count is pinned per subtest, not read from the host, so the gate
// covers the fan-out on a 1-CPU host too (testing.AllocsPerRun itself
// measures under GOMAXPROCS=1).
func TestAllocForwardScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := TinyYOLO(32)
	in := randInput(rng, net.Input.C, net.Input.H, net.Input.W)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			exec := NewExecutor(workers)
			var s Scratch
			exec.Forward(net, in, &s) // warm: arena growth + lazy weight init
			if testutil.RaceEnabled {
				t.Skip("AllocsPerRun is unreliable under -race; make alloc-gate runs this uninstrumented")
			}
			allocs := testing.AllocsPerRun(10, func() {
				exec.Forward(net, in, &s)
			})
			if allocs != 0 {
				t.Errorf("warm Forward allocates %.1f/op, want 0", allocs)
			}
		})
	}
}

func BenchmarkNetworkForwardScratch(b *testing.B) {
	net := TinyYOLO(64)
	in := tensor.New(net.Input.C, net.Input.H, net.Input.W)
	for i := range in.Data {
		in.Data[i] = float32(i%255)/255 - 0.5
	}
	exec := NewExecutor(0)
	var s Scratch
	exec.Forward(net, in, &s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.Forward(net, in, &s)
	}
}
