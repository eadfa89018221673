package dnn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"adsim/internal/tensor"
	"adsim/internal/testutil"
)

// The fleet's concurrency pattern: many goroutine "vehicles" drive
// concurrent Forward calls on two networks through one shared executor;
// every result must equal the single-stream reference bitwise. Run under
// -race by `make race`.
func TestSharedExecutorConcurrentBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tower := TinyTrackerTower(32)
	yolo := TinyYOLO(64) // large enough for its kernels to fan out
	towerIn := randInput(rng, tower.Input.C, tower.Input.H, tower.Input.W)
	yoloIn := randInput(rng, yolo.Input.C, yolo.Input.H, yolo.Input.W)
	var refS Scratch
	towerWant := NewExecutor(1).Forward(tower, towerIn.Clone(), &refS).Clone()
	yoloWant := NewExecutor(1).Forward(yolo, yoloIn.Clone(), &refS).Clone()

	exec := NewExecutor(2)
	const vehicles = 8
	var wg sync.WaitGroup
	fail := make(chan string, vehicles)
	for v := 0; v < vehicles; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			var s Scratch
			for iter := 0; iter < 25; iter++ {
				// Interleave two networks, as DET and TRA engines do.
				net, in, want := tower, towerIn, towerWant
				if (v+iter)%3 == 0 {
					net, in, want = yolo, yoloIn, yoloWant
				}
				out := exec.Forward(net, in, &s)
				for i := range want.Data {
					if out.Data[i] != want.Data[i] {
						fail <- "concurrent forward diverged from solo reference"
						return
					}
				}
			}
		}(v)
	}
	wg.Wait()
	close(fail)
	if msg, ok := <-fail; ok {
		t.Fatal(msg)
	}
}

// ForwardBatch is a loop over Forward kept for bench/; every sample must
// come out bitwise-identical to a solo Forward of the same input, in the
// same ping-pong slot, for any batch size and worker count.
func TestForwardBatchBitwiseEqualSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, netCase := range []struct {
		name string
		net  *Network
	}{
		{"tiny-yolo", TinyYOLO(32)},
		{"tracker-tower", TinyTrackerTower(32)},
	} {
		for _, batch := range []int{1, 2, 4} {
			for _, workers := range []int{1, 3} {
				exec := NewExecutor(workers)
				ins := make([]*tensor.T, batch)
				scs := make([]*Scratch, batch)
				wants := make([]*tensor.T, batch)
				for i := range ins {
					ins[i] = randInput(rng, netCase.net.Input.C, netCase.net.Input.H, netCase.net.Input.W)
					scs[i] = &Scratch{}
					var solo Scratch
					wants[i] = NewExecutor(1).Forward(netCase.net, ins[i].Clone(), &solo).Clone()
				}
				outs := exec.ForwardBatch(netCase.net, ins, scs, nil)
				for i := range outs {
					if outs[i].Len() != wants[i].Len() {
						t.Fatalf("%s b=%d w=%d sample %d: len %d, want %d",
							netCase.name, batch, workers, i, outs[i].Len(), wants[i].Len())
					}
					for j := range wants[i].Data {
						if outs[i].Data[j] != wants[i].Data[j] {
							t.Fatalf("%s b=%d w=%d sample %d: out[%d] = %v, want %v (bitwise)",
								netCase.name, batch, workers, i, j, outs[i].Data[j], wants[i].Data[j])
						}
					}
				}
			}
		}
	}
}

// Alloc gate (run by `make alloc-gate`): a warm ForwardBatch with a reused
// output buffer allocates nothing for the whole batch, at any executor
// width.
func TestAllocForwardBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	net := TinyYOLO(64)
	const batch = 3
	ins := make([]*tensor.T, batch)
	scs := make([]*Scratch, batch)
	for i := range ins {
		ins[i] = randInput(rng, net.Input.C, net.Input.H, net.Input.W)
		scs[i] = &Scratch{}
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			exec := NewExecutor(workers)
			outs := exec.ForwardBatch(net, ins, scs, nil) // warm arenas + lazy weights
			if testutil.RaceEnabled {
				t.Skip("AllocsPerRun is unreliable under -race; make alloc-gate runs this uninstrumented")
			}
			allocs := testing.AllocsPerRun(10, func() {
				outs = exec.ForwardBatch(net, ins, scs, outs)
			})
			if allocs != 0 {
				t.Errorf("warm ForwardBatch allocates %.1f/op for %d samples, want 0", allocs, batch)
			}
		})
	}
}
