package dnn

import (
	"adsim/internal/tensor"
)

// Scratch is a per-worker inference arena. Passing one to Executor.Forward
// makes the whole feed-forward pass allocation-free once warm: layer
// outputs ping-pong between two arena slots and the conv kernels draw their
// padded input and offset table from the same arena.
//
// Ownership rules (see DESIGN.md "Buffer ownership and reuse"):
//
//   - A Scratch is NOT safe for concurrent use; keep one per worker.
//   - The tensor returned by a forward pass aliases arena memory and is
//     valid only until the scratch is used again — copy out (or consume)
//     what must survive, e.g. via Hold.
//   - Hold slots are never touched by the layers, so held tensors survive
//     any number of forward passes on the same scratch.
//
// The zero value is ready to use.
type Scratch struct {
	arena tensor.Scratch
	ping  int
}

// begin resets the ping-pong rotation for a new forward pass.
func (s *Scratch) begin() { s.ping = 0 }

// next returns the output slot for the upcoming layer and advances the
// rotation. Slots 0 and 1 alternate, so a layer always reads its input from
// one slot (or the caller's tensor) and writes the other.
func (s *Scratch) next(sh Shape) *tensor.T {
	t := s.arena.Buf(s.ping, sh.C, sh.H, sh.W)
	s.ping ^= 1
	return t
}

// Hold returns caller-owned slot i (i >= 0 maps to arena slots >= 2) shaped
// c×h×w. The layers never write these slots, so callers use them to keep
// values alive across forward passes on the same scratch — e.g. the
// tracker's two-branch feature concat.
func (s *Scratch) Hold(i, c, h, w int) *tensor.T {
	if i < 0 {
		panic("dnn: negative scratch hold slot")
	}
	return s.arena.Buf(2+i, c, h, w)
}
