package track

// windowSAD is windowSADGo as one SSE2 routine (sad_amd64.s): each row's
// 16-byte chunks go through PSADBW, and the last w%16 bytes through one
// more masked 16-byte load. It always returns the whole window's SAD and
// does not read bound; an exact sum satisfies windowSADGo's contract.
// PSADBW is SSE2, in the amd64 baseline, so there is no CPU dispatch. The
// routine reads no byte outside either slice, but it does not check the
// window's shape: stride must be at least w, s must hold (h−1)·stride + w
// bytes and t w·h.
//
//go:noescape
func windowSAD(s, t []uint8, stride, w, h int, bound int64) int64
