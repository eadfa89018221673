package slam

import "adsim/internal/scene"

// VehicleStore is a writable view of a prior-map store it never mutates:
// reads stitch the base with a private overlay that absorbs the writer's
// runtime map updates. It is the one overlay in the package. A fleet gives
// each vehicle one over the shared map, so vehicles localize against
// identical survey data without ever observing each other's keyframes —
// the property that makes a fleet run bit-identical to the same vehicle
// running alone against its own store. A ShardStore is read-only, so
// whoever writes to one holds a VehicleStore over it (an Engine builds its
// own).
//
// The merge semantics (overlay-before-stored on equal Z, nearest-Z ties to
// the lower neighbor, ascending-Z interleave on Scan) match a monolithic
// PriorMap's insert order, and overlay IDs continue past the base's largest
// stored ID, so assigned IDs match a PriorMap holding the same keyframes.
//
// All methods are safe for concurrent use; the base must be too (PriorMap
// and ShardStore both are).
type VehicleStore struct {
	base    MapStore
	overlay *PriorMap
}

// NewVehicleStore wraps base as a private writable view. The id is unused; the parameter stays only because the
// benchmark module (bench/workload.go) calls this signature.
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
// keyframes preceding shared ones on equal Z.
func (vs *VehicleStore) Candidates(z, window float64) []Keyframe {
	return mergeByZ(vs.overlay.Candidates(z, window), vs.base.Candidates(z, window))
}

// NearestZ returns the closest keyframe across base and overlay; the base's
// answer wins ties (stored before overlay).
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

// mergeByZ merges two ascending-Z snapshots; on equal Z, entries from a
// precede entries from b — matching PriorMap.insert, which places newer
// keyframes before equal-Z existing ones.
func mergeByZ(a, b []Keyframe) []Keyframe {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]Keyframe, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Pose.Z <= b[j].Pose.Z {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

var _ mapWriter = (*VehicleStore)(nil)
