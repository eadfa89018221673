package tensor

// The DNN leaves as SSE routines (leaf_amd64.s), each bitwise equal to its
// Go form (the FC chains up to which NaN payload survives where two NaNs
// meet): the routines cover four lanes per step and the last len%4
// elements run through the Go form. SSE is in the amd64 baseline, so there
// is no CPU dispatch. The routines do not check shapes; the wrappers below
// pass them exact ones.

// pool4 is poolRowGo over o's first len(o) &^ 3 outputs, reading
// 2·(len(o) &^ 3) floats of top and of bot.
//
//go:noescape
func pool4(o, top, bot []float32)

// fc4 is fcDot4Go: w holds 3·len(x) + (len(x) &^ 3) floats or more.
//
//go:noescape
func fc4(s *[4][4]float32, w, x []float32)

// relu4 is reluGo over v's first len(v) &^ 3 elements.
//
//go:noescape
func relu4(v []float32)

// leaky4 is leakyGo over v's first len(v) &^ 3 elements.
//
//go:noescape
func leaky4(v []float32, alpha float32)

// poolRow computes one row of 2×2 windows: poolRowGo, four at a time.
func poolRow(o, top, bot []float32) {
	n := len(o) &^ 3
	pool4(o, top[:2*n], bot[:2*n])
	poolRowGo(o[n:], top[2*n:], bot[2*n:])
}

// fcDot4 fills s with four FC rows' accumulator chains: fcDot4Go.
func fcDot4(s *[4][4]float32, w, x []float32) {
	fc4(s, w[:3*len(x)+len(x)&^3], x)
}

// relu applies reluGo to v, four at a time.
func relu(v []float32) {
	n := len(v) &^ 3
	relu4(v[:n])
	reluGo(v[n:])
}

// leaky applies leakyGo to v, four at a time.
func leaky(v []float32, alpha float32) {
	n := len(v) &^ 3
	leaky4(v[:n], alpha)
	leakyGo(v[n:], alpha)
}
