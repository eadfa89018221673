package dnn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"adsim/internal/telemetry"
	"adsim/internal/tensor"
	"adsim/internal/testutil"
)

// ForwardBatch is the fleet's cross-stream seam; every sample must come out
// bitwise-identical to a solo Forward of the same input, in the same
// ping-pong slot, for any batch size and worker count.
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

// Hammer the gather seam: many goroutine "vehicles" drive concurrent
// Forward calls through one batching executor; every result must equal the
// unbatched single-stream reference bitwise, no matter how the leader
// groups them. Run under -race by `make race`.
func TestBatchExecutorGatherBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tower := TinyTrackerTower(32)
	yolo := TinyYOLO(32)
	towerIn := randInput(rng, tower.Input.C, tower.Input.H, tower.Input.W)
	yoloIn := randInput(rng, yolo.Input.C, yolo.Input.H, yolo.Input.W)
	var refS Scratch
	towerWant := NewExecutor(1).Forward(tower, towerIn.Clone(), &refS).Clone()
	yoloWant := NewExecutor(1).Forward(yolo, yoloIn.Clone(), &refS).Clone()

	exec := NewBatchExecutor(2)
	const vehicles = 8
	var wg sync.WaitGroup
	fail := make(chan string, vehicles)
	for v := 0; v < vehicles; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			var s Scratch
			for iter := 0; iter < 25; iter++ {
				// Interleave two networks so the queue carries mixed keys.
				net, in, want := tower, towerIn, towerWant
				if (v+iter)%3 == 0 {
					net, in, want = yolo, yoloIn, yoloWant
				}
				out := exec.Forward(net, in, &s)
				for i := range want.Data {
					if out.Data[i] != want.Data[i] {
						fail <- "gathered forward diverged from solo reference"
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

// The gather hold is the fleet phase-locker's executor half: with a cohort
// of N armed, N staggered concurrent calls must land in ONE depth-N batch
// (the leader waits for the cohort instead of draining a 1-deep head), with
// the depth recorded by GatherStats and the attached telemetry registry.
func TestGatherHoldDeepensBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	net := TinyYOLO(32)
	in := randInput(rng, net.Input.C, net.Input.H, net.Input.W)
	var refS Scratch
	want := NewExecutor(1).Forward(net, in.Clone(), &refS).Clone()

	exec := NewBatchExecutor(1)
	reg := telemetry.NewRegistry(0)
	exec.SetMetrics(reg)
	const cohort = 4
	exec.SetGatherHold(cohort, time.Second)

	var wg sync.WaitGroup
	for v := 0; v < cohort; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			time.Sleep(time.Duration(v) * 2 * time.Millisecond) // staggered arrivals
			var s Scratch
			out := exec.Forward(net, in, &s)
			for i := range want.Data {
				if out.Data[i] != want.Data[i] {
					t.Error("held gathered forward diverged from solo reference")
					return
				}
			}
		}(v)
	}
	wg.Wait()
	batches, calls := exec.GatherStats()
	if batches != 1 || calls != cohort {
		t.Errorf("gather stats = %d batches / %d calls, want 1 / %d", batches, calls, cohort)
	}
	if got := reg.Counter("dnn/gather_calls").Value(); got != cohort {
		t.Errorf("telemetry gather_calls = %d, want %d", got, cohort)
	}
	if d := reg.Dist("dnn/batch_depth").Snapshot(); d.Max != cohort {
		t.Errorf("telemetry batch_depth max = %v, want %d", d.Max, cohort)
	}
}

// A mis-sized cohort (more vehicles armed than calls arriving) must time out
// and drain, never deadlock — the hold is bounded by construction.
func TestGatherHoldTimesOut(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	net := TinyYOLO(32)
	in := randInput(rng, net.Input.C, net.Input.H, net.Input.W)
	exec := NewBatchExecutor(1)
	exec.SetGatherHold(8, 10*time.Millisecond)
	var s Scratch
	if out := exec.Forward(net, in, &s); out == nil {
		t.Fatal("held forward returned nil")
	}
	if batches, calls := exec.GatherStats(); batches != 1 || calls != 1 {
		t.Errorf("gather stats = %d/%d, want 1/1", batches, calls)
	}
	exec.SetGatherHold(0, 0) // disarm: back to the timerless path
	if out := exec.Forward(net, in, &s); out == nil {
		t.Fatal("disarmed forward returned nil")
	}
}

// Alloc gate (run by `make alloc-gate`): the batched steady state must stay
// zero-alloc per frame per vehicle — a warm ForwardBatch with a reused
// output buffer allocates nothing for the whole batch, at any worker count.
func TestAllocForwardBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	net := TinyYOLO(32)
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
				t.Errorf("warm ForwardBatch allocates %.1f/op for %d vehicles, want 0", allocs, batch)
			}
		})
	}
}

func BenchmarkForwardBatch(b *testing.B) {
	net := TinyYOLO(64)
	exec := NewExecutor(1)
	const batch = 4
	ins := make([]*tensor.T, batch)
	scs := make([]*Scratch, batch)
	for i := range ins {
		in := tensor.New(net.Input.C, net.Input.H, net.Input.W)
		for j := range in.Data {
			in.Data[j] = float32((i+j)%255)/255 - 0.5
		}
		ins[i] = in
		scs[i] = &Scratch{}
	}
	outs := exec.ForwardBatch(net, ins, scs, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs = exec.ForwardBatch(net, ins, scs, outs)
	}
}
