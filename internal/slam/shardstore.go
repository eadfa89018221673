package slam

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"adsim/internal/scene"
	"adsim/internal/telemetry"
)

// ShardStoreOptions parameterizes OpenShardStore.
type ShardStoreOptions struct {
	// CacheBudget bounds the resident-footprint estimate of cached tiles
	// (CacheStats.ResidentBytes), in bytes. The most recently used tile is
	// never evicted, so the effective floor is one tile. ≤ 0 means unlimited.
	CacheBudget int64
	// Telemetry receives the cache metrics (mapstore/hits, misses,
	// evictions counters, the mapstore/resident_bytes gauge and the
	// mapstore/load_ms load-latency distribution). nil uses a private
	// registry, reachable via CacheStats.
	Telemetry *telemetry.Registry
}

// ShardStore is the tiled on-disk prior-map store: a directory of ADM1
// shard files (see WriteShards) paged on demand through a byte-budgeted
// LRU cache, plus an in-memory overlay that absorbs runtime map updates. It
// implements MapStore; reads stitch across tile boundaries and merge the
// overlay so results are bit-identical to the equivalent monolithic
// PriorMap. Every tile load is a read's miss, so the cache counters are a
// pure function of the read sequence.
//
// All methods are safe for concurrent use. Tile loads happen under the
// store lock, so concurrent readers serialize on a cache miss — the load
// latency they observe is exactly what the mapstore/load_ms distribution
// records.
type ShardStore struct {
	dir    string
	idx    ShardIndex
	budget int64

	mu            sync.Mutex
	resident      map[int]*residentTile // index-position → cache entry
	lru           *list.List            // front = most recently used
	residentBytes int64
	err           error // first I/O error; kept as a sticky record for Err

	overlay *PriorMap // runtime Adds; never written back to shards

	hits, misses, evictions, ioErrors *telemetry.Counter
	residentGauge                     *telemetry.Gauge
	loadMS                            *telemetry.Dist
}

type residentTile struct {
	pos  int // position in idx.Tiles
	kfs  []Keyframe
	mem  int64
	elem *list.Element
}

// OpenShardStore opens a shard directory written by WriteShards.
func OpenShardStore(dir string, opts ShardStoreOptions) (*ShardStore, error) {
	idx, err := ReadShardIndex(dir)
	if err != nil {
		return nil, err
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry(0)
	}
	return &ShardStore{
		dir:           dir,
		idx:           *idx,
		budget:        opts.CacheBudget,
		resident:      make(map[int]*residentTile),
		lru:           list.New(),
		overlay:       &PriorMap{nextID: idx.MaxID},
		hits:          reg.Counter("mapstore/hits"),
		misses:        reg.Counter("mapstore/misses"),
		evictions:     reg.Counter("mapstore/evictions"),
		ioErrors:      reg.Counter("mapstore/io_errors"),
		residentGauge: reg.Gauge("mapstore/resident_bytes"),
		loadMS:        reg.Dist("mapstore/load_ms"),
	}, nil
}

// Index returns a copy of the store's shard index.
func (s *ShardStore) Index() ShardIndex { return s.idx }

// Err returns the first I/O error the store has hit — a sticky record, not
// a gate: load failures are transient (the read that hit the error
// degrades to whatever is resident plus the overlay, and later accesses
// retry the tile). Callers that need hard guarantees should check Err
// after a replay; the mapstore/io_errors counter tallies every failure.
func (s *ShardStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close returns Err. The store holds no open files or goroutines between
// reads, so there is nothing else to release.
func (s *ShardStore) Close() error { return s.Err() }

// Len reports stored plus runtime-added keyframes.
func (s *ShardStore) Len() int { return s.idx.Keyframes + s.overlay.Len() }

// Add inserts a runtime keyframe into the in-memory overlay (shard files
// are immutable survey data). IDs continue past the largest stored ID, so
// they match what the monolithic map would have assigned.
func (s *ShardStore) Add(pose scene.Pose, kps []Keypoint, descs []Descriptor) int {
	return s.overlay.Add(pose, kps, descs)
}

// getTileLocked returns tile pos's keyframes through the LRU cache, loading
// the tile on a miss; the caller holds s.mu.
func (s *ShardStore) getTileLocked(pos int) []Keyframe {
	if rt := s.resident[pos]; rt != nil {
		s.hits.Inc()
		s.lru.MoveToFront(rt.elem)
		return rt.kfs
	}
	s.misses.Inc()
	start := time.Now()
	kfs, err := s.loadTile(pos)
	if err != nil {
		// Transient degradation, not a brick: record the first error (Err
		// stays a sticky record), count it, and leave the tile loadable —
		// the next access over this range retries, so a flaky disk costs
		// coverage on the affected reads only.
		if s.err == nil {
			s.err = err
		}
		s.ioErrors.Inc()
		return nil
	}
	s.loadMS.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	rt := &residentTile{pos: pos, kfs: kfs, mem: storageBytes(kfs)}
	rt.elem = s.lru.PushFront(rt)
	s.resident[pos] = rt
	s.residentBytes += rt.mem
	for s.budget > 0 && s.residentBytes > s.budget && s.lru.Len() > 1 {
		victim := s.lru.Back().Value.(*residentTile)
		s.lru.Remove(victim.elem)
		delete(s.resident, victim.pos)
		s.residentBytes -= victim.mem
		s.evictions.Inc()
	}
	s.residentGauge.Set(float64(s.residentBytes))
	return kfs
}

func (s *ShardStore) loadTile(pos int) ([]Keyframe, error) {
	name := s.idx.Tiles[pos].File
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, fmt.Errorf("slam: opening shard %s: %w", name, err)
	}
	defer f.Close()
	tm, err := ReadPriorMap(f)
	if err != nil {
		return nil, fmt.Errorf("slam: reading shard %s: %w", name, err)
	}
	return tm.keyframes, nil // freshly decoded: no other references exist
}

// Candidates returns the keyframes within ±window meters of z in
// ascending-Z order, stitched across every overlapping tile and merged with
// the runtime overlay. The result is a snapshot the caller owns.
func (s *ShardStore) Candidates(z, window float64) []Keyframe {
	lo, hi := z-window, z+window
	var stored []Keyframe
	s.mu.Lock()
	for pos := range s.idx.Tiles {
		t := &s.idx.Tiles[pos]
		if t.ZMax < lo {
			continue
		}
		if t.ZMin > hi {
			break
		}
		kfs := s.getTileLocked(pos)
		a := sort.Search(len(kfs), func(j int) bool { return kfs[j].Pose.Z >= lo })
		b := sort.Search(len(kfs), func(j int) bool { return kfs[j].Pose.Z > hi })
		stored = append(stored, kfs[a:b]...)
	}
	s.mu.Unlock()
	return mergeByZ(s.overlay.Candidates(z, window), stored)
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

// NearestZ returns the keyframe closest to z across shards and overlay.
// Only the (at most two) tiles that can contain the nearest stored
// keyframe are consulted, so a NearestZ never faults in more than two
// tiles. Ties prefer the lower-Z neighbor, as PriorMap.NearestZ does.
func (s *ShardStore) NearestZ(z float64) (Keyframe, bool) {
	var best Keyframe
	have := false
	consider := func(kf Keyframe) {
		if !have || nearerZ(kf, best, z) {
			best, have = kf, true
		}
	}
	s.mu.Lock()
	// Tiles are disjoint and ascending: the nearest stored keyframe lives
	// in the last tile starting at-or-below z or the first one above it.
	i := sort.Search(len(s.idx.Tiles), func(j int) bool { return s.idx.Tiles[j].ZMin > z })
	for _, pos := range []int{i - 1, i} {
		if pos < 0 || pos >= len(s.idx.Tiles) {
			continue
		}
		kfs := s.getTileLocked(pos)
		k := sort.Search(len(kfs), func(j int) bool { return kfs[j].Pose.Z >= z })
		for _, c := range []int{k - 1, k} {
			if c >= 0 && c < len(kfs) {
				consider(kfs[c])
			}
		}
	}
	s.mu.Unlock()
	if kf, ok := s.overlay.NearestZ(z); ok {
		consider(kf)
	}
	return best, have
}

// nearerZ reports whether a is a better nearest-to-z candidate than b:
// strictly nearer, or equally near with lower Z.
func nearerZ(a, b Keyframe, z float64) bool {
	da, db := abs(a.Pose.Z-z), abs(b.Pose.Z-z)
	if da != db {
		return da < db
	}
	return a.Pose.Z < b.Pose.Z
}

// Scan streams every keyframe in ascending-Z order, paging tiles through
// the cache one at a time (evicting per the budget as it goes) and merging
// the overlay — the relocalization worst case now runs in bounded memory.
// fn runs without the store lock held, so concurrent reads proceed between
// tiles; overlay keyframes added after Scan starts are not observed.
func (s *ShardStore) Scan(fn func(Keyframe) bool) {
	ov := s.overlay.All()
	oi := 0
	for pos := range s.idx.Tiles {
		s.mu.Lock()
		kfs := s.getTileLocked(pos)
		s.mu.Unlock()
		for _, kf := range kfs {
			for oi < len(ov) && ov[oi].Pose.Z <= kf.Pose.Z {
				if !fn(ov[oi]) {
					return
				}
				oi++
			}
			if !fn(kf) {
				return
			}
		}
	}
	for ; oi < len(ov); oi++ {
		if !fn(ov[oi]) {
			return
		}
	}
}

// CacheStats is a point-in-time snapshot of the shard cache counters.
type CacheStats struct {
	Hits, Misses, Evictions int64
	// IOErrors counts failed tile loads (each one a degraded read that a
	// later access retries).
	IOErrors      int64
	ResidentBytes int64
	ResidentTiles int
}

// CacheStats snapshots the cache counters (also exported via the telemetry
// registry passed at open).
func (s *ShardStore) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CacheStats{
		Hits:          s.hits.Value(),
		Misses:        s.misses.Value(),
		Evictions:     s.evictions.Value(),
		IOErrors:      s.ioErrors.Value(),
		ResidentBytes: s.residentBytes,
		ResidentTiles: s.lru.Len(),
	}
}
