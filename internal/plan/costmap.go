// Package plan implements the motion-planning engine (MOTPLAN) of the
// pipeline, following the two-planner design the paper adopts from
// Autoware: a graph-search state lattice for large open (unstructured)
// areas such as parking lots [Pivtoraiko et al.], and a conformal
// spatiotemporal lattice for structured roads [McNaughton et al.], which
// adapts candidate trajectories to the lane geometry and to the predicted
// motion of tracked obstacles.
package plan

import (
	"fmt"
	"math"
)

// Obstacle is one planning-relevant object in the world frame: position,
// physical radius and a constant-velocity motion estimate (from the fusion
// engine's tracked objects).
type Obstacle struct {
	X, Z   float64 // position (m)
	Radius float64 // inflation radius (m)
	VX, VZ float64 // velocity (m/s)
}

// At returns the obstacle center extrapolated t seconds ahead under the
// constant-velocity model.
func (o Obstacle) At(t float64) (x, z float64) {
	return o.X + o.VX*t, o.Z + o.VZ*t
}

// Costmap is a 2D occupancy/cost grid over a world-frame rectangle, used by
// the unstructured (state-lattice) planner. Cell values are travel costs:
// 0 free, +Inf lethal, intermediate values from obstacle inflation.
type Costmap struct {
	OriginX, OriginZ float64 // world position of cell (0,0)'s corner
	Res              float64 // cell edge length (m)
	W, H             int     // cells in X and Z
	cells            []float64
}

// NewCostmap allocates a free costmap of W×H cells with the given origin
// and resolution.
func NewCostmap(originX, originZ, res float64, w, h int) (*Costmap, error) {
	if res <= 0 || w <= 0 || h <= 0 {
		return nil, fmt.Errorf("plan: invalid costmap res=%v %dx%d", res, w, h)
	}
	return &Costmap{OriginX: originX, OriginZ: originZ, Res: res, W: w, H: h,
		cells: make([]float64, w*h)}, nil
}

// Index converts a world position to cell coordinates; ok is false outside
// the map.
func (c *Costmap) Index(x, z float64) (ix, iz int, ok bool) {
	ix = int(math.Floor((x - c.OriginX) / c.Res))
	iz = int(math.Floor((z - c.OriginZ) / c.Res))
	return ix, iz, ix >= 0 && iz >= 0 && ix < c.W && iz < c.H
}

// CostAt returns the cell cost at a world position. Positions outside the
// map are lethal, so the planner cannot wander off the known world.
func (c *Costmap) CostAt(x, z float64) float64 {
	ix, iz, ok := c.Index(x, z)
	if !ok {
		return math.Inf(1)
	}
	return c.cells[iz*c.W+ix]
}

// AddObstacle marks cells within the obstacle's radius lethal and applies a
// linearly decaying soft cost out to 2× radius, the usual inflation layer.
func (c *Costmap) AddObstacle(o Obstacle) {
	if o.Radius <= 0 {
		return
	}
	soft := 2 * o.Radius
	x0, z0, _ := c.Index(o.X-soft, o.Z-soft)
	x1, z1, _ := c.Index(o.X+soft, o.Z+soft)
	for iz := z0; iz <= z1; iz++ {
		for ix := x0; ix <= x1; ix++ {
			if ix < 0 || iz < 0 || ix >= c.W || iz >= c.H {
				continue
			}
			cx := c.OriginX + (float64(ix)+0.5)*c.Res
			cz := c.OriginZ + (float64(iz)+0.5)*c.Res
			d := math.Hypot(cx-o.X, cz-o.Z)
			idx := iz*c.W + ix
			switch {
			case d <= o.Radius:
				c.cells[idx] = math.Inf(1)
			case d <= soft:
				v := 10 * (1 - (d-o.Radius)/o.Radius)
				if v > c.cells[idx] {
					c.cells[idx] = v
				}
			}
		}
	}
}

// Lethal reports whether the world position is untraversable.
func (c *Costmap) Lethal(x, z float64) bool { return math.IsInf(c.CostAt(x, z), 1) }
