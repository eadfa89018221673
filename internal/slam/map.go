package slam

import (
	"fmt"
	"sort"
	"sync"

	"adsim/internal/scene"
)

// Keyframe is one entry in the prior map: the feature descriptors observed
// at a surveyed pose. The paper's storage-constraint analysis (41 TB for a
// US-wide map) is the at-scale version of exactly this structure.
type Keyframe struct {
	ID          int
	Pose        scene.Pose
	Keypoints   []Keypoint
	Descriptors []Descriptor
}

// PriorMap is the monolithic in-memory prior-map store: keyframes indexed
// by longitudinal position for windowed candidate lookup. The paper's LOC
// engine matches live features against this database to localize at high
// precision. PriorMap implements MapStore; ShardStore is the tiled on-disk
// alternative for maps that must not be fully resident.
//
// All methods are safe for concurrent use. Reads return snapshots: the
// returned keyframe slices have their own backing array, so a retained
// result is never shifted or overwritten by a later Add (a Keyframe's
// keypoint/descriptor slices are shared with the map, but are immutable
// once inserted).
type PriorMap struct {
	mu        sync.RWMutex
	keyframes []Keyframe // sorted by Pose.Z
	nextID    int
}

// NewPriorMap returns an empty map.
func NewPriorMap() *PriorMap { return &PriorMap{} }

// Len reports the number of keyframes.
func (m *PriorMap) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.keyframes)
}

// Add inserts a keyframe observed at pose, keeping the database sorted by
// longitudinal position, and returns its assigned ID. It goes before any
// keyframe already at the same Z.
func (m *PriorMap) Add(pose scene.Pose, kps []Keypoint, descs []Descriptor) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	id := m.nextID
	idx := sort.Search(len(m.keyframes), func(i int) bool {
		return m.keyframes[i].Pose.Z >= pose.Z
	})
	m.insertLocked(idx, Keyframe{ID: id, Pose: pose, Keypoints: kps, Descriptors: descs})
	return id
}

// insert places a deserialized keyframe, its stored ID kept, after every
// keyframe at or below its Z, so a map read in file order keeps the order
// its equal-Z keyframes were written in.
func (m *PriorMap) insert(kf Keyframe) {
	m.mu.Lock()
	defer m.mu.Unlock()
	idx := sort.Search(len(m.keyframes), func(i int) bool {
		return m.keyframes[i].Pose.Z > kf.Pose.Z
	})
	m.insertLocked(idx, kf)
}

// insertLocked places kf at index idx of the sorted keyframes.
func (m *PriorMap) insertLocked(idx int, kf Keyframe) {
	m.keyframes = append(m.keyframes, Keyframe{})
	copy(m.keyframes[idx+1:], m.keyframes[idx:])
	m.keyframes[idx] = kf
	if kf.ID > m.nextID {
		m.nextID = kf.ID // future Adds must not collide with stored IDs
	}
}

// Candidates returns the keyframes whose longitudinal position lies within
// ±window meters of z, in ascending-Z order. This is the tracking-mode
// search set; relocalization passes a much larger window, which is what
// makes it expensive. The result is a snapshot owned by the caller.
func (m *PriorMap) Candidates(z, window float64) []Keyframe {
	m.mu.RLock()
	defer m.mu.RUnlock()
	lo := sort.Search(len(m.keyframes), func(i int) bool {
		return m.keyframes[i].Pose.Z >= z-window
	})
	hi := sort.Search(len(m.keyframes), func(i int) bool {
		return m.keyframes[i].Pose.Z > z+window
	})
	out := make([]Keyframe, hi-lo)
	copy(out, m.keyframes[lo:hi])
	return out
}

// All returns a snapshot of every keyframe in ascending-Z order. Prefer
// Scan on the relocalization path: a sharded store streams tiles through
// its cache instead of materializing the whole map.
func (m *PriorMap) All() []Keyframe {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Keyframe, len(m.keyframes))
	copy(out, m.keyframes)
	return out
}

// Scan calls fn for every keyframe in ascending-Z order, stopping early
// when fn returns false. fn runs on a snapshot: keyframes added after Scan
// starts are not observed.
func (m *PriorMap) Scan(fn func(Keyframe) bool) {
	for _, kf := range m.All() {
		if !fn(kf) {
			return
		}
	}
}

// NearestZ returns the keyframe whose longitudinal position is closest to
// z, and false if the map is empty. On an exact distance tie the lower-Z
// neighbor wins.
func (m *PriorMap) NearestZ(z float64) (Keyframe, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.keyframes) == 0 {
		return Keyframe{}, false
	}
	idx := sort.Search(len(m.keyframes), func(i int) bool {
		return m.keyframes[i].Pose.Z >= z
	})
	best := -1
	bestDist := 0.0
	for _, c := range []int{idx - 1, idx} {
		if c < 0 || c >= len(m.keyframes) {
			continue
		}
		d := m.keyframes[c].Pose.Z - z
		if d < 0 {
			d = -d
		}
		if best == -1 || d < bestDist {
			best, bestDist = c, d
		}
	}
	return m.keyframes[best], true
}

// StorageBytes estimates the map's in-memory resident footprint:
// descriptors plus keypoint coordinates plus pose. This is the estimate the
// shard cache budgets against; the storage-constraint extrapolation uses
// the serialized density instead (see SerializedBytes).
func (m *PriorMap) StorageBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return storageBytes(m.keyframes)
}

// storageBytes is the resident-footprint estimate shared by PriorMap and
// the shard cache accounting.
func storageBytes(kfs []Keyframe) int64 {
	var total int64
	for _, kf := range kfs {
		total += int64(len(kf.Descriptors)) * 32 // 256-bit descriptors
		total += int64(len(kf.Keypoints)) * 16   // x, y, score, angle (packed)
		total += 24                              // pose
	}
	return total
}

func (m *PriorMap) String() string {
	return fmt.Sprintf("priormap(%d keyframes, %d KB)", m.Len(), m.StorageBytes()/1024)
}
