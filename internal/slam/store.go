package slam

import "adsim/internal/scene"

// MapStore is the prior-map database interface the LOC engine reads. It
// abstracts where the map lives: PriorMap keeps it monolithic in memory; a
// ShardStore pages fixed-pitch longitudinal tiles from disk through a
// byte-budgeted LRU cache — the paper's storage constraint (~41 TB of prior
// maps for the US road network) means a production map can never be fully
// resident, so every engine read has to work through an interface that can
// page. A store that also takes writes (PriorMap, VehicleStore) absorbs the
// engine's runtime map updates; a read-only one (ShardStore) gets a private
// VehicleStore overlay from the engine.
//
// Implementations must be safe for concurrent use (so several LOC replicas
// can share one store) and must return snapshot keyframes: a retained
// result is never shifted or overwritten by a later Add.
type MapStore interface {
	// Len reports the number of keyframes in the store.
	Len() int
	// Candidates returns the keyframes within ±window meters of z, in
	// ascending-Z order. The result is a snapshot the caller owns.
	Candidates(z, window float64) []Keyframe
	// NearestZ returns the keyframe closest to z, and false when empty.
	NearestZ(z float64) (Keyframe, bool)
	// Scan streams every keyframe in ascending-Z order to fn, stopping
	// early when fn returns false. This is the relocalization path: a
	// sharded store streams tiles through its cache instead of
	// materializing the whole map.
	Scan(fn func(Keyframe) bool)
}

// mapWriter is a MapStore that takes the engine's runtime map updates.
type mapWriter interface {
	MapStore
	// Add inserts a keyframe observed at pose (the runtime map-update
	// path) and returns its assigned ID.
	Add(pose scene.Pose, kps []Keypoint, descs []Descriptor) int
}

var (
	_ mapWriter = (*PriorMap)(nil)
	_ MapStore  = (*ShardStore)(nil)
)
