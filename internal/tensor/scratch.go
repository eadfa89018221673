package tensor

// Scratch is a reusable memory arena for the inference hot path. A warm
// Scratch makes the conv/FC kernels and a dnn feed-forward pass
// allocation-free: the conv's padded input, its offset table and the
// activation tensors come from grow-only backing stores that are retained
// across frames instead of being reallocated per layer.
//
// Ownership rules (see DESIGN.md "Buffer ownership and reuse"):
//
//   - A Scratch is NOT safe for concurrent use. Give each worker its own
//     (the detector owns one, the tracker one per executor worker).
//   - Buf slots 0 and 1 are the network ping-pong slots: a feed-forward
//     pass alternates layer outputs between them, so a tensor returned by
//     a forward pass aliases scratch memory and is only valid until the
//     scratch is used again. Copy out what must survive.
//   - Callers that need values to survive across forward passes (e.g. the
//     tracker's two-branch concat) use Buf slots >= 2, which no kernel
//     touches.
//   - The conv's padded input and its offset table are private to the
//     conv kernel within one kernel call.
//
// The zero value is ready to use.
type Scratch struct {
	pad   []float32 // conv input, zero-padded and split into phase planes
	off   []int32   // conv patch-row offset table
	slots []*slot   // indexed tensor slots (0,1 = ping-pong)
}

// slot instances are heap-allocated individually (slots is a slice of
// pointers) so the *T handed out by Buf stays stable even when the slot
// index space grows.
type slot struct {
	t   T
	buf []float32
}

// padded returns the conv's staging buffer, where a convolution writes its
// input zero-padded and split into phase planes, resized to n elements.
// Contents are unspecified: the conv writes every element, including the
// zeros of padded positions and the slack, so no clearing happens here.
func (s *Scratch) padded(n int) []float32 {
	if cap(s.pad) < n {
		s.pad = make([]float32, n)
	}
	return s.pad[:n]
}

// offsets returns the conv's patch-row offset table resized to n entries,
// with unspecified contents.
func (s *Scratch) offsets(n int) []int32 {
	if cap(s.off) < n {
		s.off = make([]int32, n)
	}
	return s.off[:n]
}

// Buf returns the i'th scratch tensor reshaped to c×h×w, growing its
// backing store as needed. Contents are unspecified — callers must fully
// write the tensor before reading it. The returned pointer stays stable
// for the life of the Scratch (only the Data slice is re-sized), so a warm
// call allocates nothing.
func (s *Scratch) Buf(i, c, h, w int) *T {
	for len(s.slots) <= i {
		s.slots = append(s.slots, &slot{})
	}
	sl := s.slots[i]
	n := c * h * w
	if cap(sl.buf) < n {
		sl.buf = make([]float32, n)
	}
	sl.t = T{C: c, H: h, W: w, Data: sl.buf[:n]}
	return &sl.t
}
