//go:build !amd64

package tensor

// The DNN leaves off amd64 are their Go forms.

func poolRow(o, top, bot []float32)           { poolRowGo(o, top, bot) }
func fcDot4(s *[4][4]float32, w, x []float32) { fcDot4Go(s, w, x) }
func relu(v []float32)                        { reluGo(v) }
func leaky(v []float32, alpha float32)        { leakyGo(v, alpha) }
