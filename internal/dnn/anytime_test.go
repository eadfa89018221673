package dnn

import (
	"math/rand"
	"testing"
)

// A checkpoint that never fires must leave the anytime pass bitwise equal
// to the plain forward, whether keep is nil or always true, at any worker
// count.
func TestForwardAnytimeFullRunBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	net := TinyYOLO(32)
	in := randInput(rng, net.Input.C, net.Input.H, net.Input.W)

	var want Scratch
	ref := NewExecutor(1).Forward(net, in.Clone(), &want).Clone()

	var s1 Scratch
	out, ran := NewExecutor(1).ForwardAnytime(net, in.Clone(), &s1, func(int) bool { return true })
	if ran != len(net.Layers) {
		t.Fatalf("network pass ran %d layers, want %d", ran, len(net.Layers))
	}
	for j := range ref.Data {
		if out.Data[j] != ref.Data[j] {
			t.Fatalf("network pass out[%d] = %v, want %v (bitwise)", j, out.Data[j], ref.Data[j])
		}
	}

	for _, workers := range []int{1, 3} {
		exec := NewExecutor(workers)
		var s2 Scratch
		out, ran := exec.ForwardAnytime(net, in.Clone(), &s2, nil)
		if ran != len(net.Layers) {
			t.Fatalf("workers=%d: ran %d layers, want %d", workers, ran, len(net.Layers))
		}
		for j := range ref.Data {
			if out.Data[j] != ref.Data[j] {
				t.Fatalf("workers=%d: out[%d] = %v, want %v (bitwise)", workers, j, out.Data[j], ref.Data[j])
			}
		}
	}
}

// An exit at layer boundary k must execute exactly k layers, return the
// k-th intermediate activation, and consult the checkpoint in ascending
// order once per attempted layer.
func TestForwardAnytimeEarlyExit(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	net := TinyYOLO(32)
	in := randInput(rng, net.Input.C, net.Input.H, net.Input.W)
	exec := NewExecutor(2)

	for cut := 0; cut <= len(net.Layers); cut++ {
		// Reference: run the truncated prefix through the plain path.
		var ref Scratch
		ref.begin()
		want := in
		for i := 0; i < cut; i++ {
			want = net.Layers[i].Forward(want, &ref, 1)
		}

		var asked []int
		var s Scratch
		out, ran := exec.ForwardAnytime(net, in.Clone(), &s, func(next int) bool {
			asked = append(asked, next)
			return next < cut
		})
		if ran != cut {
			t.Fatalf("cut=%d: ran %d layers", cut, ran)
		}
		wantAsks := cut + 1
		if cut == len(net.Layers) {
			wantAsks = cut // no boundary after the last layer
		}
		if len(asked) != wantAsks {
			t.Fatalf("cut=%d: checkpoint consulted %d times, want %d", cut, len(asked), wantAsks)
		}
		for i, a := range asked {
			if a != i {
				t.Fatalf("cut=%d: checkpoint order %v", cut, asked)
			}
		}
		if out.Len() != want.Len() {
			t.Fatalf("cut=%d: out len %d, want %d", cut, out.Len(), want.Len())
		}
		for j := range want.Data {
			if out.Data[j] != want.Data[j] {
				t.Fatalf("cut=%d: out[%d] = %v, want %v (bitwise)", cut, j, out.Data[j], want.Data[j])
			}
		}
	}
}
