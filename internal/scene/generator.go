package scene

import (
	"math"

	"adsim/internal/img"
	"adsim/internal/stats"
)

// actor is a dynamic world object.
type actor struct {
	id     int
	class  Class
	x, z   float64 // world position (m); z is absolute longitudinal position
	vx, vz float64 // velocity (m/s)
	w, h   float64 // physical extent (m): width and height
	shade  uint8

	// Driver-maneuver state (aggressive profile). manUntil is the scenario
	// time the active maneuver ends (0 = none); origVZ remembers the
	// pre-brake speed a hard-braking vehicle recovers to.
	manUntil float64
	origVZ   float64
}

// Generator produces the frame stream for one scenario. Construct with New;
// the zero value is not usable.
//
// All randomness flows through one seeded RNG consumed in a fixed order by
// the single-threaded Step loop, so the same Config (timeline included) and
// Seed always produce the bitwise-identical frame/truth/ID sequence.
type Generator struct {
	cfg      Config
	cam      Camera
	rng      *stats.RNG
	actors   []actor
	ego      Pose
	frame    int
	nextID   int
	warnings []string

	// Current world parameters. They start from the Config and are the
	// seam the timeline drives: phases override them as scenario time
	// passes. With no timeline they never change, and the generator
	// behaves exactly like the pre-timeline static world.
	laneWidth  float64
	numLanes   int
	curIllum   float64
	curSpeed   float64
	density    float64 // vehicles/km managed by the arrival process; <0 = static counts
	pedDensity float64 // pedestrians+cyclists/km; <0 = static counts
	driver     DriverProfile

	// Active loop segment: the rendered world is periodic in Z with period
	// loopLen anchored at loopAnchor. Config.LoopLength sets a whole-run
	// loop (anchor 0); a loop phase sets one scoped to the phase.
	loopLen    float64
	loopAnchor float64

	// Timeline cursor.
	tl       *Timeline
	phaseIdx int
	active   *Phase // innermost phase entered, for window/loop scoping
}

// New builds a scenario generator. The same Config (including Seed) always
// produces the identical frame sequence.
func New(cfg Config) (*Generator, error) {
	warnings, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	g := &Generator{
		cfg:        cfg,
		cam:        StandardCamera(cfg.Width, cfg.Height),
		rng:        stats.NewRNG(cfg.Seed),
		warnings:   warnings,
		laneWidth:  cfg.LaneWidth,
		numLanes:   cfg.NumLanes,
		curIllum:   cfg.Illumination,
		curSpeed:   cfg.EgoSpeed,
		density:    -1,
		pedDensity: -1,
		loopLen:    cfg.LoopLength,
		tl:         cfg.Timeline,
	}
	g.ego = Pose{X: -g.laneWidth / 2, Z: 0, Theta: 0} // right-of-center lane
	if cfg.LoopLength > 0 {
		// Loop worlds are static and periodic: distribute signs evenly
		// around the loop and drop all moving actors. Config.Validate
		// surfaces the coercion as a warning when it discards actors.
		g.cfg.NumVehicles, g.cfg.NumPeds = 0, 0
		for i := 0; i < g.cfg.NumSigns; i++ {
			side := 1.0
			if i%2 == 1 {
				side = -1.0
			}
			g.actors = append(g.actors, actor{
				id:    g.allocID(),
				class: TrafficSign,
				x:     side * (g.roadHalf() + 1.0),
				z:     float64(i) * cfg.LoopLength / float64(g.cfg.NumSigns),
				w:     0.8, h: 0.8,
				shade: 230,
			})
		}
		return g, nil
	}
	g.spawnActors()
	return g, nil
}

// Camera returns the generator's camera model.
func (g *Generator) Camera() Camera { return g.cam }

// Config returns the scenario configuration (after default normalization).
func (g *Generator) Config() Config { return g.cfg }

// Warnings returns the validation warnings recorded at construction — the
// conditions New repaired rather than rejected (e.g. moving actors dropped
// from a loop world).
func (g *Generator) Warnings() []string { return append([]string(nil), g.warnings...) }

// roadHalf is the half-width of the carriageway under the current lane
// geometry.
func (g *Generator) roadHalf() float64 { return g.laneWidth * float64(g.numLanes) / 2 }

func (g *Generator) spawnActors() {
	for i := 0; i < g.cfg.NumVehicles; i++ {
		g.spawnVehicle(8, 80)
	}
	for i := 0; i < g.cfg.NumPeds; i++ {
		g.spawnPed(10, 60)
	}
	for i := 0; i < g.cfg.NumSigns; i++ {
		side := 1.0
		if i%2 == 1 {
			side = -1.0
		}
		g.actors = append(g.actors, actor{
			id:    g.allocID(),
			class: TrafficSign,
			x:     side * (g.roadHalf() + 1.0),
			z:     g.ego.Z + 20 + float64(i)*35,
			w:     0.8, h: 0.8,
			shade: 230,
		})
	}
}

// spawnVehicle places one vehicle in a random lane between zMin and zMax
// meters ahead of the ego. RNG consumption order (lane, speed factor, depth,
// shade — via the literal's field order below) is part of the determinism
// contract the frame goldens pin.
func (g *Generator) spawnVehicle(zMin, zMax float64) {
	lane := g.rng.Intn(g.numLanes)
	laneX := (float64(lane)+0.5)*g.laneWidth - g.roadHalf()
	speed := g.curSpeed * g.rng.Uniform(0.7, 1.15)
	g.actors = append(g.actors, actor{
		id:    g.allocID(),
		class: Vehicle,
		x:     laneX,
		z:     g.ego.Z + g.rng.Uniform(zMin, zMax),
		vz:    speed,
		w:     1.8, h: 1.5,
		shade: uint8(40 + g.rng.Intn(60)),
	})
}

// spawnPed places one pedestrian (or, 30% of the time, a cyclist) at the
// roadside between zMin and zMax meters ahead.
func (g *Generator) spawnPed(zMin, zMax float64) {
	side := 1.0
	if g.rng.Bernoulli(0.5) {
		side = -1.0
	}
	class := Pedestrian
	w, h, vx := 0.5, 1.75, side*-g.rng.Uniform(0.2, 1.2)
	if g.rng.Bernoulli(0.3) {
		class = Cyclist
		w, h = 0.6, 1.7
		vx = 0
	}
	a := actor{
		id:    g.allocID(),
		class: class,
		x:     side * (g.roadHalf() + g.rng.Uniform(0.5, 3)),
		z:     g.ego.Z + g.rng.Uniform(zMin, zMax),
		vx:    vx,
		w:     w, h: h,
		shade: uint8(60 + g.rng.Intn(80)),
	}
	if class == Cyclist {
		a.vz = g.rng.Uniform(3, 7)
	}
	g.actors = append(g.actors, a)
}

func (g *Generator) allocID() int {
	g.nextID++
	return g.nextID
}

// Step advances the world by one frame period and renders the next frame.
func (g *Generator) Step() Frame {
	dt := 1.0 / g.cfg.FPS
	t := float64(g.frame) * dt
	g.enterPhases(t)
	if g.frame > 0 {
		g.ego.Z += g.curSpeed * dt
		if g.driver == DriverAggressive && g.loopLen <= 0 {
			g.driverEvents(t, dt)
		}
		for i := range g.actors {
			a := &g.actors[i]
			a.x += a.vx * dt
			a.z += a.vz * dt
		}
		if g.loopLen <= 0 {
			if g.density >= 0 || g.pedDensity >= 0 {
				g.arrival(dt)
			} else {
				g.recycleActors()
			}
		}
	}
	f := Frame{
		Index:   g.frame,
		Time:    t,
		EgoPose: g.ego,
	}
	f.Image, f.Truth = g.render()
	if g.curIllum != 1 {
		applyIllumination(f.Image, g.curIllum)
	}
	g.applyWindows(f.Image, t)
	g.frame++
	return f
}

// enterPhases applies every timeline phase whose start time has arrived and
// expires phase-scoped state (loop segments) whose phase has ended.
func (g *Generator) enterPhases(t float64) {
	if g.tl == nil {
		return
	}
	for g.phaseIdx < len(g.tl.Phases) && g.tl.Phases[g.phaseIdx].Start <= t {
		g.applyPhase(&g.tl.Phases[g.phaseIdx], t)
		g.phaseIdx++
	}
	if g.active != nil && g.active.End > 0 && t >= g.active.End {
		// The active phase ran out with no successor covering t: its loop
		// segment (if any) ends and the world continues from the real ego Z.
		if g.active.LoopLength > 0 {
			g.loopLen, g.loopAnchor = g.cfg.LoopLength, 0
		}
		g.active = nil
	}
}

// applyPhase commits one phase's world overrides. Parameters it does not
// set keep their current values.
func (g *Generator) applyPhase(ph *Phase, t float64) {
	if g.active != nil && g.active.LoopLength > 0 && ph.LoopLength <= 0 {
		g.loopLen, g.loopAnchor = g.cfg.LoopLength, 0
	}
	if ph.Set.Has(SetDensity) {
		g.density = ph.Density
	}
	if ph.Set.Has(SetPedDensity) {
		g.pedDensity = ph.PedDensity
	}
	if ph.Set.Has(SetDriver) {
		g.driver = ph.Driver
	}
	if ph.Set.Has(SetIllumination) {
		g.curIllum = ph.Illumination
	}
	if ph.Set.Has(SetEgoSpeed) {
		g.curSpeed = ph.EgoSpeed
	}
	if ph.Set.Has(SetLaneWidth) {
		g.laneWidth = ph.LaneWidth
	}
	if ph.Set.Has(SetNumLanes) {
		g.numLanes = ph.NumLanes
	}
	if ph.LoopLength > 0 {
		g.enterLoop(ph.LoopLength)
	}
	g.active = ph
	_ = t
}

// enterLoop starts a loop segment at the current ego position: moving
// actors despawn (their IDs retire — a despawn is permanent to the
// tracker), and the roadside signs are rebuilt evenly around the loop with
// fresh IDs so every lap revisits identical scenery.
func (g *Generator) enterLoop(length float64) {
	kept := g.actors[:0]
	for _, a := range g.actors {
		if a.class == TrafficSign {
			kept = append(kept, a)
		}
	}
	g.actors = kept
	g.loopAnchor = math.Round(g.ego.Z*1e9) / 1e9
	g.loopLen = length
	n := g.cfg.NumSigns
	g.actors = g.actors[:0]
	for i := 0; i < n; i++ {
		side := 1.0
		if i%2 == 1 {
			side = -1.0
		}
		g.actors = append(g.actors, actor{
			id:    g.allocID(),
			class: TrafficSign,
			x:     side * (g.roadHalf() + 1.0),
			z:     g.loopAnchor + float64(i)*length/float64(n),
			w:     0.8, h: 0.8,
			shade: 230,
		})
	}
}

// Aggressive-driver event process constants.
const (
	// aggressiveEventRate is each vehicle's maneuver start rate (events/s).
	aggressiveEventRate = 0.25
	// cutInDuration is how long a lane change takes (s).
	cutInDuration = 1.5
)

// driverEvents runs the aggressive-driver event process: each vehicle
// without an active maneuver may start a cut-in (lateral drift of one lane
// width toward the ego's lane) or a hard brake (speed cut to 30–55% for
// 0.8–1.6 s, then released). Actors are visited in stable index order so
// RNG consumption — and therefore the whole world evolution — replays
// identically for a given program and seed.
func (g *Generator) driverEvents(t, dt float64) {
	for i := range g.actors {
		a := &g.actors[i]
		if a.class != Vehicle {
			continue
		}
		if a.manUntil > 0 && t >= a.manUntil {
			// Maneuver over: settle into the lane / release the brake.
			a.vx = 0
			if a.origVZ > 0 {
				a.vz, a.origVZ = a.origVZ, 0
			}
			a.manUntil = 0
		}
		if a.manUntil > 0 {
			continue
		}
		if !g.rng.Bernoulli(aggressiveEventRate * dt) {
			continue
		}
		if g.rng.Bernoulli(0.5) {
			// Cut-in toward the ego's side of the road.
			dir := 1.0
			if a.x > g.ego.X {
				dir = -1.0
			}
			a.vx = dir * g.laneWidth / cutInDuration
			a.manUntil = t + cutInDuration
		} else {
			// Hard brake, then recover.
			a.origVZ = a.vz
			a.vz *= g.rng.Uniform(0.3, 0.55)
			a.manUntil = t + g.rng.Uniform(0.8, 1.6)
		}
	}
}

// arrivalSpan is the stretch of road ahead of the ego (meters) the arrival
// process manages density over.
const arrivalSpan = 150.0

// arrivalHz converts a standing deficit into spawn probability per second:
// each missing actor arrives as a Bernoulli(arrivalHz·dt) event per frame,
// so density transitions ramp over ~a second instead of teleporting.
const arrivalHz = 1.5

// arrival is the density-managed replacement for recycleActors: moving
// actors that fall behind, wander off, or pass beyond the managed span
// despawn for good (their IDs retire), and a seeded arrival process spawns
// replacements to hold the phase's target density. Signs recycle as in the
// static world so roadside texture persists.
func (g *Generator) arrival(dt float64) {
	kept := g.actors[:0]
	for _, a := range g.actors {
		if a.class == TrafficSign {
			kept = append(kept, a)
			continue
		}
		behind := a.z < g.ego.Z-10
		farOff := math.Abs(a.x) > g.roadHalf()+8
		beyond := a.z > g.ego.Z+arrivalSpan+50
		if behind || farOff || beyond {
			continue
		}
		kept = append(kept, a)
	}
	g.actors = kept
	for i := range g.actors {
		a := &g.actors[i]
		if a.class == TrafficSign && a.z < g.ego.Z-10 {
			a.id = g.allocID() // a respawn is a new object to the tracker
			a.z = g.ego.Z + g.rng.Uniform(40, 100)
		}
	}

	var nv, np int
	for _, a := range g.actors {
		switch a.class {
		case Vehicle:
			nv++
		case Pedestrian, Cyclist:
			np++
		}
	}
	if g.density >= 0 {
		target := int(math.Round(g.density * arrivalSpan / 1000))
		for nv > target {
			g.despawnFarthest(Vehicle)
			nv--
		}
		for i := nv; i < target; i++ {
			if g.rng.Bernoulli(math.Min(1, arrivalHz*dt)) {
				g.spawnVehicle(20, arrivalSpan)
			}
		}
	}
	if g.pedDensity >= 0 {
		target := int(math.Round(g.pedDensity * arrivalSpan / 1000))
		for np > target {
			g.despawnFarthest(Pedestrian)
			np--
		}
		for i := np; i < target; i++ {
			if g.rng.Bernoulli(math.Min(1, arrivalHz*dt)) {
				g.spawnPed(10, arrivalSpan*0.6)
			}
		}
	}
}

// despawnFarthest removes the actor of the given moving class (Pedestrian
// also matches Cyclist) farthest ahead of the ego — the least-visible one —
// without consuming RNG, so density reductions are deterministic.
func (g *Generator) despawnFarthest(class Class) {
	best, bestZ := -1, math.Inf(-1)
	for i, a := range g.actors {
		match := a.class == class || (class == Pedestrian && a.class == Cyclist)
		if match && a.z > bestZ {
			best, bestZ = i, a.z
		}
	}
	if best >= 0 {
		g.actors = append(g.actors[:best], g.actors[best+1:]...)
	}
}

// applyWindows applies the active phase's sensor windows to the rendered
// frame: an occlusion draws a large featureless foreground block (a truck
// swallowing the view), a blackout zeroes the frame outright. Ground truth
// is world state, not sensor state, so Truth is unaffected — the stress is
// exactly that perception must cope while truth marches on.
func (g *Generator) applyWindows(im *img.Gray, t float64) {
	if g.active == nil {
		return
	}
	for _, w := range g.active.Occlusions {
		if w.Contains(t) {
			g.drawOccluder(im)
			break
		}
	}
	for _, w := range g.active.Blackouts {
		if w.Contains(t) {
			for i := range im.Pix {
				im.Pix[i] = 0
			}
			break
		}
	}
}

// drawOccluder paints the foreground occluder: a flat dark slab over the
// center-left of the frame that erases corners and gradients beneath it.
func (g *Generator) drawOccluder(im *img.Gray) {
	w, h := float64(g.cfg.Width), float64(g.cfg.Height)
	box := img.RectWH(w*0.18, h*0.25, w*0.45, h*0.72)
	im.FillRect(box, 48)
	im.StrokeRect(box, 62)
}

// applyIllumination scales every pixel, saturating at white.
func applyIllumination(im *img.Gray, k float64) {
	for i, p := range im.Pix {
		v := float64(p) * k
		if v > 255 {
			v = 255
		}
		im.Pix[i] = uint8(v)
	}
}

// effZ returns the ego's position in the rendered world frame: the real Z
// on open routes, or wrapped into the active loop segment on periodic
// routes (whole-run Config.LoopLength loops anchor at 0; loop phases
// anchor where the phase began). The result is quantized to nanometers so
// that accumulated floating-point error cannot flip discrete rasterization
// decisions between laps — loop frames must be pixel-identical one period
// apart.
func (g *Generator) effZ() float64 {
	z := g.ego.Z
	if g.loopLen > 0 {
		z = g.loopAnchor + math.Mod(z-g.loopAnchor, g.loopLen)
	}
	return math.Round(z*1e9) / 1e9
}

// actorDepth returns the actor's longitudinal distance ahead of the ego in
// the rendered world frame, wrapping on loop routes.
func (g *Generator) actorDepth(a actor) float64 {
	dz := a.z - g.effZ()
	if g.loopLen > 0 {
		dz = math.Mod(dz, g.loopLen)
		if dz < 0 {
			dz += g.loopLen
		}
	}
	return dz
}

// recycleActors respawns actors that have fallen far behind the ego vehicle
// or wandered off the shoulder, keeping object density roughly constant.
func (g *Generator) recycleActors() {
	for i := range g.actors {
		a := &g.actors[i]
		behind := a.z < g.ego.Z-10
		farOff := math.Abs(a.x) > g.roadHalf()+8
		if !behind && !farOff {
			continue
		}
		a.id = g.allocID() // a respawn is a new object to the tracker
		a.manUntil, a.origVZ = 0, 0
		switch a.class {
		case Vehicle:
			lane := g.rng.Intn(g.numLanes)
			a.x = (float64(lane)+0.5)*g.laneWidth - g.roadHalf()
			a.z = g.ego.Z + g.rng.Uniform(30, 90)
			a.vx = 0
			a.vz = g.curSpeed * g.rng.Uniform(0.7, 1.15)
		case Pedestrian, Cyclist:
			side := 1.0
			if g.rng.Bernoulli(0.5) {
				side = -1.0
			}
			a.x = side * (g.roadHalf() + g.rng.Uniform(0.5, 3))
			a.z = g.ego.Z + g.rng.Uniform(15, 60)
			if a.class == Pedestrian {
				a.vx = -side * g.rng.Uniform(0.2, 1.2)
			}
		case TrafficSign:
			a.z = g.ego.Z + g.rng.Uniform(40, 100)
		}
	}
}

// render rasterizes the current world state and returns the frame image and
// ground-truth annotations sorted far-to-near so nearer objects overdraw.
func (g *Generator) render() (*img.Gray, []TruthObject) {
	im := img.NewGray(g.cfg.Width, g.cfg.Height)
	g.drawBackground(im)

	// Painter's order: far actors first.
	order := make([]int, len(g.actors))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ { // insertion sort by depth descending
		for j := i; j > 0; j-- {
			if g.actorDepth(g.actors[order[j]]) > g.actorDepth(g.actors[order[j-1]]) {
				order[j], order[j-1] = order[j-1], order[j]
			} else {
				break
			}
		}
	}

	var truth []TruthObject
	const maxDepth = 120.0
	for _, idx := range order {
		a := g.actors[idx]
		dz := g.actorDepth(a)
		if dz < 1 || dz > maxDepth {
			continue
		}
		relX := a.x - g.ego.X
		baseY := 0.0 // objects stand on the road plane
		u0, v0, ok0 := g.cam.Project(relX-a.w/2, baseY+a.h, dz)
		u1, v1, ok1 := g.cam.Project(relX+a.w/2, baseY, dz)
		if !ok0 || !ok1 {
			continue
		}
		box := img.Rect{X0: u0, Y0: v0, X1: u1, Y1: v1}
		clipped := box.Clip(0, 0, g.cfg.Width, g.cfg.Height)
		if clipped.Empty() || clipped.Area() < 9 {
			continue
		}
		g.drawActor(im, a, box)
		truth = append(truth, TruthObject{ID: a.id, Class: a.class, Box: clipped, Depth: dz})
	}
	return im, truth
}

func (g *Generator) drawActor(im *img.Gray, a actor, box img.Rect) {
	im.FillRect(box, a.shade)
	im.StrokeRect(box, 255)
	switch a.class {
	case Vehicle:
		// Window band and wheel hints give interior gradients.
		win := img.Rect{X0: box.X0 + box.W()*0.15, Y0: box.Y0 + box.H()*0.1,
			X1: box.X1 - box.W()*0.15, Y1: box.Y0 + box.H()*0.45}
		im.FillRect(win, 20)
		wy := int(box.Y1) - 1
		r := int(box.W() * 0.08)
		if r > 0 {
			im.FillCircle(int(box.X0+box.W()*0.25), wy, r, 10)
			im.FillCircle(int(box.X0+box.W()*0.75), wy, r, 10)
		}
	case TrafficSign:
		inner := box.Scale(0.6)
		im.FillRect(inner, 30)
		// Pole down to the road.
		cx := int((box.X0 + box.X1) / 2)
		im.DrawLine(cx, int(box.Y1), cx, int(box.Y1)+int(box.H()), 90)
	case Pedestrian, Cyclist:
		// Head blob.
		r := int(box.W() * 0.3)
		if r > 0 {
			im.FillCircle(int((box.X0+box.X1)/2), int(box.Y0)+r, r, a.shade/2+90)
		}
	}
}

// drawBackground paints sky, road surface, lane markings, and textured
// roadside façades whose pattern scrolls consistently with ego motion, so
// the SLAM front-end observes coherent feature displacement.
func (g *Generator) drawBackground(im *img.Gray) {
	w, h := g.cfg.Width, g.cfg.Height
	horizon := int(g.cam.Cy)
	if horizon < 1 {
		horizon = 1
	}
	if horizon > h-1 {
		horizon = h - 1
	}
	// Sky.
	im.FillRect(img.RectWH(0, 0, float64(w), float64(horizon)), 200)
	// Road: darker toward the camera, one FillRect per run of rows that
	// share a shade.
	shade := func(y int) uint8 { return uint8(90 - 30*(y-horizon)/(h-horizon+1)) }
	for y := horizon; y < h; {
		v, next := shade(y), y+1
		for next < h && shade(next) == v {
			next++
		}
		im.FillRect(img.RectWH(0, float64(y), float64(w), float64(next-y)), v)
		y = next
	}
	// Roadside façades: scattered bright blocks on a dark band. Isolated
	// blocks present L-corners, which the FAST segment test responds to
	// (ideal checkerboard X-junctions do not produce the contiguous arc
	// FAST requires). Block positions are keyed to world coordinates so
	// the texture scrolls coherently with ego motion.
	bandTop := horizon - h/6
	bandH := h / 6
	if bandTop < 0 {
		bandTop, bandH = 0, horizon
	}
	im.FillRect(img.RectWH(0, float64(bandTop), float64(w), float64(bandH)), 70)
	const cell = 12
	scroll := int(g.effZ() * 6)
	for row := 0; row*cell < bandH; row++ {
		for col := -1; col*cell < w+cell; col++ {
			worldCol := col + scroll/cell
			hsh := uint32(worldCol*73856093) ^ uint32(row*19349663)
			hsh = (hsh ^ hsh>>13) * 0x5bd1e995
			if hsh%3 != 0 {
				continue // ~1/3 of cells carry a block
			}
			jx := int(hsh>>8) % (cell - 8)
			jy := int(hsh>>16) % (cell - 8)
			bw := 3 + int(hsh>>20)%5 // 3..7 px wide
			bh := 3 + int(hsh>>24)%5 // 3..7 px tall
			x0 := col*cell + jx - scroll%cell
			y0 := bandTop + row*cell + jy
			shade := uint8(140 + hsh%80) // ≤ 219: below the detector's outline mask
			im.FillRect(img.RectWH(float64(x0), float64(y0), float64(bw), float64(bh)), shade)
		}
	}
	// Lane markings: dashed center lines converging at the principal point.
	for lane := 0; lane <= g.numLanes; lane++ {
		laneX := float64(lane)*g.laneWidth - g.roadHalf()
		g.drawLaneLine(im, laneX, horizon)
	}
}

// drawLaneLine projects a longitudinal road line at lateral offset laneX and
// draws dashes along it. Dash phase follows ego Z, producing frame-to-frame
// optical flow on the road surface.
func (g *Generator) drawLaneLine(im *img.Gray, laneX float64, horizon int) {
	relX := laneX - g.ego.X
	dashLen := 3.0 // meters
	// March in depth; dash pattern keyed to absolute Z so it scrolls.
	for z := 2.0; z < 80; z += 0.5 {
		absZ := g.effZ() + z
		if int(absZ/dashLen)%2 == 1 {
			continue
		}
		u, v, ok := g.cam.Project(relX, 0, z)
		if !ok || v < float64(horizon) {
			continue
		}
		thickness := int(math.Max(1, g.cam.FocalPx*0.12/z))
		for t := 0; t < thickness; t++ {
			im.Set(int(u)+t, int(v), 240)
		}
	}
}
