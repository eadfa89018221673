package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"adsim"
)

// frameHash is the SHA-256 of one delivered frame's untimed outputs.
type frameHash [sha256.Size]byte

// digester hashes delivered frames without allocating in steady state (it
// runs inside the timed window, where allocs_per_frame is being counted).
// Not safe for concurrent use: one per vehicle stream.
type digester struct {
	buf []byte
}

func newDigester() *digester {
	return &digester{buf: make([]byte, 0, 4096)}
}

func (d *digester) i64(v int64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v)) }
func (d *digester) f64(v float64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
}
func (d *digester) flag(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	d.buf = append(d.buf, b)
}

// frame digests the fields a scheduling or kernel change must never move:
// frame index, detections, track table, pose estimate, plan decision and
// speed, and the actuation command. Everything wall-clock derived (Timing,
// Wall, Degraded) is left out — those are what the benchmark measures, not
// what it pins.
func (d *digester) frame(res *adsim.FrameResult) frameHash {
	d.buf = d.buf[:0]
	d.i64(int64(res.Frame.Index))
	d.i64(int64(len(res.Detections)))
	for _, det := range res.Detections {
		d.f64(det.Box.X0)
		d.f64(det.Box.Y0)
		d.f64(det.Box.X1)
		d.f64(det.Box.Y1)
		d.i64(int64(det.Class))
		d.f64(det.Confidence)
	}
	d.i64(int64(len(res.Tracks)))
	for _, tr := range res.Tracks {
		d.i64(int64(tr.ID))
		d.i64(int64(tr.Class))
		d.f64(tr.Box.X0)
		d.f64(tr.Box.Y0)
		d.f64(tr.Box.X1)
		d.f64(tr.Box.Y1)
		d.f64(tr.VX)
		d.f64(tr.VY)
		d.i64(int64(tr.Age))
		d.i64(int64(tr.Misses))
	}
	d.f64(res.Pose.Pose.X)
	d.f64(res.Pose.Pose.Z)
	d.f64(res.Pose.Pose.Theta)
	d.flag(res.Pose.Tracked)
	d.flag(res.Pose.Relocalized)
	d.flag(res.Pose.LoopClosed)
	d.flag(res.Pose.Stale)
	d.i64(int64(res.Pose.Matches))
	d.i64(int64(res.Plan.Decision))
	d.f64(res.Plan.Speed)
	d.f64(res.Command.Curvature)
	d.f64(res.Command.Accel)
	d.f64(res.Command.TargetSpeed)

	return sha256.Sum256(d.buf)
}

// streamDigest folds a stream's per-frame hashes into one value for the
// report.
func streamDigest(frames []frameHash) frameHash {
	h := sha256.New()
	for i := range frames {
		h.Write(frames[i][:])
	}
	var out frameHash
	h.Sum(out[:0])
	return out
}
