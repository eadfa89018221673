package track

// A constant-velocity Kalman filter over box-center position, maintained
// per track. Raw frame-to-frame center differences are noisy (template
// quantization, detection jitter); the fusion engine and the motion
// planner's constant-velocity obstacle extrapolation both consume track
// velocity, so smoothing it materially improves plan stability.
//
// State x = [cx, cy, vx, vy]ᵀ, measurement z = [cx, cy]ᵀ. With the
// position/velocity blocks independent per axis, the 4x4 filter decomposes
// into two identical 2x2 filters, which is how it is implemented.

// kalman2 is a 1-axis position/velocity Kalman filter.
type kalman2 struct {
	pos, vel float64
	// Covariance [[pPP, pPV], [pPV, pVV]].
	pPP, pPV, pVV float64
}

// Filter noise parameters, in pixels: process noise accounts for
// maneuvering targets, measurement noise for box-center jitter.
const (
	kfProcessNoise = 1.0 // accel std-dev, px/frame²
	kfMeasNoise    = 2.0 // center measurement std-dev, px
)

// newKalman2 initializes at a measured position with zero velocity and
// wide velocity uncertainty.
func newKalman2(pos float64) kalman2 {
	return kalman2{
		pos: pos,
		pPP: kfMeasNoise * kfMeasNoise,
		pVV: 25, // ±5 px/frame initial velocity uncertainty
	}
}

// predict advances one frame under the constant-velocity model.
func (k *kalman2) predict() {
	k.pos += k.vel
	// P = F P Fᵀ + Q with F = [[1,1],[0,1]] and white-acceleration Q.
	q := kfProcessNoise * kfProcessNoise
	pPP := k.pPP + 2*k.pPV + k.pVV + q/4
	pPV := k.pPV + k.pVV + q/2
	pVV := k.pVV + q
	k.pPP, k.pPV, k.pVV = pPP, pPV, pVV
}

// update fuses a position measurement.
func (k *kalman2) update(z float64) {
	r := kfMeasNoise * kfMeasNoise
	s := k.pPP + r
	gP := k.pPP / s
	gV := k.pPV / s
	innov := z - k.pos
	k.pos += float64(gP * innov)
	k.vel += float64(gV * innov)
	// Joseph-free covariance update (standard form).
	pPP := (1 - gP) * k.pPP
	pPV := (1 - gP) * k.pPV
	pVV := k.pVV - float64(gV*k.pPV)
	k.pPP, k.pPV, k.pVV = pPP, pPV, pVV
}

// boxFilter is the per-track 2-axis filter.
type boxFilter struct {
	x, y kalman2
	init bool
}

// observe feeds a measured box center; the first observation initializes.
// It returns the filtered center and velocity.
func (f *boxFilter) observe(cx, cy float64) (px, py, vx, vy float64) {
	if !f.init {
		f.x = newKalman2(cx)
		f.y = newKalman2(cy)
		f.init = true
		return cx, cy, 0, 0
	}
	f.x.predict()
	f.y.predict()
	f.x.update(cx)
	f.y.update(cy)
	return f.x.pos, f.y.pos, f.x.vel, f.y.vel
}
