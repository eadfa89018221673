// Package fusion implements the sensor-fusion engine (FUSION) of the
// pipeline: it retrieves the coordinates of the objects being tracked by the
// tracking engine, combines them with the vehicle location produced by the
// localization engine, and projects everything into one world-frame 3D
// coordinate space for the motion planner — step 2 of the paper's Figure 1.
//
// Depth for monocular boxes is recovered from per-class physical-height
// priors (a vehicle is ~1.5 m tall, a pedestrian ~1.75 m): depth =
// focal × height_m / height_px, the standard monocular range estimate for
// vision-only systems like Mobileye's that the paper's pipeline follows.
package fusion

import (
	"fmt"
	"math"

	"adsim/internal/img"
	"adsim/internal/scene"
)

// classHeights is the physical-height prior per object class, meters.
var classHeights = [scene.NumClasses]float64{
	scene.Vehicle:     1.5,
	scene.Pedestrian:  1.75,
	scene.Cyclist:     1.7,
	scene.TrafficSign: 0.8,
}

// ClassHeight returns the physical-height prior for a class (meters).
func ClassHeight(c scene.Class) float64 {
	if c < 0 || int(c) >= scene.NumClasses {
		return 1.5
	}
	return classHeights[c]
}

// TrackedObject is the fusion engine's view of one tracker output.
type TrackedObject struct {
	ID     int
	Class  scene.Class
	Box    img.Rect
	VX, VY float64 // pixels/frame
}

// WorldObject is one fused object in the world frame: absolute position on
// the ground plane plus estimated ground velocity.
type WorldObject struct {
	ID    int
	Class scene.Class
	// X is lateral position (m, world frame), Z longitudinal (m).
	X, Z float64
	// VX, VZ is the estimated ground velocity (m/s).
	VX, VZ float64
	// Depth is the camera-relative range estimate (m).
	Depth float64
	// Width, Height are estimated physical extents (m).
	Width, Height float64
}

// Frame is the fused world state handed to the motion planner.
type Frame struct {
	EgoPose scene.Pose
	Objects []WorldObject
}

// Engine is the fusion engine. It is stateless apart from configuration and
// safe for concurrent use.
type Engine struct {
	cam scene.Camera
	fps float64
}

// New builds a fusion engine for a camera model and a frame rate (used to
// convert per-frame pixel velocities into per-second ground velocities).
func New(cam scene.Camera, fps float64) (*Engine, error) {
	if cam.FocalPx <= 0 {
		return nil, fmt.Errorf("fusion: non-positive focal length %v", cam.FocalPx)
	}
	if fps <= 0 {
		return nil, fmt.Errorf("fusion: non-positive fps %v", fps)
	}
	return &Engine{cam: cam, fps: fps}, nil
}

// Fuse projects tracked objects into the world frame anchored at the
// localization engine's pose estimate.
func (e *Engine) Fuse(pose scene.Pose, objects []TrackedObject) Frame {
	out := Frame{EgoPose: pose, Objects: make([]WorldObject, 0, len(objects))}
	sinT, cosT := math.Sin(pose.Theta), math.Cos(pose.Theta)
	for _, t := range objects {
		if t.Box.H() <= 0 {
			continue
		}
		hm := ClassHeight(t.Class)
		depth := e.cam.FocalPx * hm / t.Box.H()
		cx, _ := t.Box.Center()
		// Camera-relative lateral offset at that depth.
		relX := (cx - e.cam.Cx) * depth / e.cam.FocalPx
		// Rotate into the world frame and translate by ego pose. Theta=0
		// faces +Z; positive Theta yaws toward +X.
		wx := pose.X + float64(relX*cosT) + float64(depth*sinT)
		wz := pose.Z - float64(relX*sinT) + float64(depth*cosT)

		// Ground-velocity estimate from pixel velocity at the object's
		// depth (lateral) and from box-scale change (longitudinal) is
		// approximated laterally only; longitudinal relative velocity is
		// left to the planner's constant-velocity extrapolation.
		vx := t.VX * depth / e.cam.FocalPx * e.fps

		out.Objects = append(out.Objects, WorldObject{
			ID:     t.ID,
			Class:  t.Class,
			X:      wx,
			Z:      wz,
			VX:     vx,
			Depth:  depth,
			Width:  t.Box.W() * depth / e.cam.FocalPx,
			Height: hm,
		})
	}
	return out
}
