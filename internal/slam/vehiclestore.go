package slam

import "adsim/internal/scene"

// VehicleStore is one fleet vehicle's view of a prior-map store shared by N
// vehicles: reads stitch the shared base (which this vehicle never mutates)
// with a private overlay that absorbs the vehicle's own runtime map updates.
// Vehicles therefore localize against identical survey data without ever
// observing each other's keyframes — the property that makes a fleet run
// bit-identical to the same vehicle running alone against its own store.
//
// The merge semantics (overlay-before-stored on equal Z, nearest-Z ties to
// the lower neighbor, ascending-Z interleave on Scan) replicate ShardStore's
// overlay exactly, and overlay IDs continue past the base's largest stored
// ID, so assigned IDs match a solo run too.
//
// All methods are safe for concurrent use; the base must be too (PriorMap
// and ShardStore both are).
type VehicleStore struct {
	base    MapStore
	overlay *PriorMap
}

// NewVehicleStore wraps base as a vehicle's private view. The id is unused;
// the parameter stays only because the benchmark module (bench/workload.go)
// calls this signature.
func NewVehicleStore(id int, base MapStore) *VehicleStore {
	maxID := 0
	if ss, ok := base.(*ShardStore); ok {
		maxID = ss.idx.MaxID // avoid paging every tile just to find the max
	} else {
		base.Scan(func(kf Keyframe) bool {
			if kf.ID > maxID {
				maxID = kf.ID
			}
			return true
		})
	}
	return &VehicleStore{base: base, overlay: &PriorMap{nextID: maxID}}
}

// Len reports shared plus vehicle-private keyframes.
func (vs *VehicleStore) Len() int { return vs.base.Len() + vs.overlay.Len() }

// Add inserts a runtime keyframe into this vehicle's private overlay; the
// shared base is never written.
func (vs *VehicleStore) Add(pose scene.Pose, kps []Keypoint, descs []Descriptor) int {
	return vs.overlay.Add(pose, kps, descs)
}

// Candidates merges the base's window with this vehicle's overlay, private
// keyframes preceding shared ones on equal Z (the ShardStore overlay rule).
func (vs *VehicleStore) Candidates(z, window float64) []Keyframe {
	return mergeByZ(vs.overlay.Candidates(z, window), vs.base.Candidates(z, window))
}

// NearestZ returns the closest keyframe across base and overlay; the base's
// answer wins ties exactly as ShardStore's stored-before-overlay order does.
func (vs *VehicleStore) NearestZ(z float64) (Keyframe, bool) {
	best, have := vs.base.NearestZ(z)
	if kf, ok := vs.overlay.NearestZ(z); ok && (!have || nearerZ(kf, best, z)) {
		best, have = kf, true
	}
	return best, have
}

// Scan streams base and overlay keyframes interleaved in ascending-Z order,
// overlay entries first on equal Z. Overlay keyframes added after Scan
// starts are not observed (same snapshot rule as the base stores).
func (vs *VehicleStore) Scan(fn func(Keyframe) bool) {
	ov := vs.overlay.All()
	oi := 0
	stopped := false
	vs.base.Scan(func(kf Keyframe) bool {
		for oi < len(ov) && ov[oi].Pose.Z <= kf.Pose.Z {
			if !fn(ov[oi]) {
				stopped = true
				return false
			}
			oi++
		}
		if !fn(kf) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for ; oi < len(ov); oi++ {
		if !fn(ov[oi]) {
			return
		}
	}
}

var _ MapStore = (*VehicleStore)(nil)
