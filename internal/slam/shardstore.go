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
	// CacheBudget bounds the resident-footprint estimate (StorageBytes) of
	// cached tiles, in bytes. The most recently used tile is never evicted,
	// so the effective floor is one tile. ≤ 0 means unlimited.
	CacheBudget int64
	// Telemetry receives the cache metrics (mapstore/hits, misses,
	// prefetches, evictions counters, the mapstore/resident_bytes gauge and
	// the mapstore/load_ms load-latency distribution). nil uses a private
	// registry, reachable via CacheStats.
	Telemetry *telemetry.Registry
	// Prefetch enables the motion-model-directed background prefetcher:
	// Advise warms the next tile in the travel direction off the read path.
	Prefetch bool
}

// ShardStore is the tiled on-disk prior-map store: a directory of ADM1
// shard files (see WriteShards) paged through a byte-budgeted LRU cache,
// plus an in-memory overlay that absorbs runtime map updates. It implements
// MapStore; reads stitch across tile boundaries and merge the overlay so
// results are bit-identical to the equivalent monolithic PriorMap.
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
	closed        bool

	overlay *PriorMap // runtime Adds; never written back to shards

	// Fleet contention bookkeeping: each advised vehicle protects its
	// {current, next} tiles from eviction, so one vehicle's relocalization
	// Scan cannot thrash another vehicle's working set out of the cache.
	protRef      map[int]int   // tile position → protecting-vehicle count
	vehicleTiles map[int][]int // vehicle ID → protected tile positions

	hits, misses, prefetches, evictions, ioErrors *telemetry.Counter
	residentGauge                                 *telemetry.Gauge
	loadMS                                        *telemetry.Dist

	prefetchCh chan int
	prefetchWG sync.WaitGroup
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
	s := &ShardStore{
		dir:           dir,
		idx:           *idx,
		budget:        opts.CacheBudget,
		resident:      make(map[int]*residentTile),
		lru:           list.New(),
		overlay:       &PriorMap{nextID: idx.MaxID},
		protRef:       make(map[int]int),
		vehicleTiles:  make(map[int][]int),
		hits:          reg.Counter("mapstore/hits"),
		misses:        reg.Counter("mapstore/misses"),
		prefetches:    reg.Counter("mapstore/prefetches"),
		evictions:     reg.Counter("mapstore/evictions"),
		ioErrors:      reg.Counter("mapstore/io_errors"),
		residentGauge: reg.Gauge("mapstore/resident_bytes"),
		loadMS:        reg.Dist("mapstore/load_ms"),
	}
	if opts.Prefetch {
		s.prefetchCh = make(chan int, 4)
		s.prefetchWG.Add(1)
		go s.prefetchLoop()
	}
	return s, nil
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

// Close stops the background prefetcher and returns Err. The store must
// not be used after Close.
func (s *ShardStore) Close() error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if !alreadyClosed && s.prefetchCh != nil {
		close(s.prefetchCh)
		s.prefetchWG.Wait()
	}
	return s.Err()
}

// Len reports stored plus runtime-added keyframes.
func (s *ShardStore) Len() int { return s.idx.Keyframes + s.overlay.Len() }

// StorageBytes reports the resident footprint: cached tiles plus the
// runtime overlay. This is the number the cache budget bounds (up to one
// tile of slack), not the total map size — bounding it is the point.
func (s *ShardStore) StorageBytes() int64 {
	s.mu.Lock()
	resident := s.residentBytes
	s.mu.Unlock()
	return resident + s.overlay.StorageBytes()
}

// Add inserts a runtime keyframe into the in-memory overlay (shard files
// are immutable survey data). IDs continue past the largest stored ID, so
// they match what the monolithic map would have assigned.
func (s *ShardStore) Add(pose scene.Pose, kps []Keypoint, descs []Descriptor) int {
	return s.overlay.Add(pose, kps, descs)
}

// getTileLocked returns tile pos's keyframes through the LRU cache; the
// caller holds s.mu. prefetch marks cache-warming loads so they are counted
// apart from demand misses.
func (s *ShardStore) getTileLocked(pos int, prefetch bool) []Keyframe {
	if rt := s.resident[pos]; rt != nil {
		if !prefetch {
			s.hits.Inc()
		}
		s.lru.MoveToFront(rt.elem)
		return rt.kfs
	}
	if prefetch {
		s.prefetches.Inc()
	} else {
		s.misses.Inc()
	}
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
		victim := s.evictionVictimLocked()
		s.lru.Remove(victim.elem)
		delete(s.resident, victim.pos)
		s.residentBytes -= victim.mem
		s.evictions.Inc()
	}
	s.residentGauge.Set(float64(s.residentBytes))
	return kfs
}

// evictionVictimLocked picks the least-recently-used resident tile not
// protected by any vehicle's advised window. When every eviction candidate
// is protected, the raw LRU tail is evicted anyway: the byte budget is a
// hard bound, and contention awareness only reorders victims within it.
func (s *ShardStore) evictionVictimLocked() *residentTile {
	for e := s.lru.Back(); e != nil && e != s.lru.Front(); e = e.Prev() {
		rt := e.Value.(*residentTile)
		if s.protRef[rt.pos] == 0 {
			return rt
		}
	}
	return s.lru.Back().Value.(*residentTile)
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
		kfs := s.getTileLocked(pos, false)
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
		kfs := s.getTileLocked(pos, false)
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
		kfs := s.getTileLocked(pos, false)
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

// Advise hints the store with the motion model's position and velocity; the
// background prefetcher (when enabled) warms the next tile in the travel
// direction so crossing a tile boundary does not take a demand miss. Advise
// never blocks: hints are dropped when the prefetcher is busy.
func (s *ShardStore) Advise(z, velocity float64) {
	if s.prefetchCh == nil {
		return
	}
	ahead := tileOf(z, s.idx.TilePitch)
	var pos int
	if velocity >= 0 {
		ahead++
		pos = sort.Search(len(s.idx.Tiles), func(j int) bool { return s.idx.Tiles[j].Tile >= ahead })
		if pos >= len(s.idx.Tiles) {
			return
		}
	} else {
		ahead--
		pos = sort.Search(len(s.idx.Tiles), func(j int) bool { return s.idx.Tiles[j].Tile > ahead }) - 1
		if pos < 0 {
			return
		}
	}
	s.mu.Lock()
	if !s.closed {
		if _, ok := s.resident[pos]; !ok {
			select {
			case s.prefetchCh <- pos:
			default: // prefetcher busy; the hint will recur next frame
			}
		}
	}
	s.mu.Unlock()
}

// AdviseVehicle is Advise for one vehicle of a fleet sharing the store: in
// addition to the prefetch hint, it marks the vehicle's current tile and the
// next tile in its travel direction as protected, steering LRU eviction away
// from every advised vehicle's working set (see evictionVictimLocked).
// Vehicle IDs are caller-assigned; re-advising moves the protection window.
func (s *ShardStore) AdviseVehicle(id int, z, velocity float64) {
	tile := tileOf(z, s.idx.TilePitch)
	ahead := tile + 1
	if velocity < 0 {
		ahead = tile - 1
	}
	cur := s.tilePos(tile)
	next := s.tilePos(ahead)

	s.mu.Lock()
	if !s.closed {
		for _, pos := range s.vehicleTiles[id] {
			if s.protRef[pos]--; s.protRef[pos] <= 0 {
				delete(s.protRef, pos)
			}
		}
		prot := s.vehicleTiles[id][:0]
		for _, pos := range [2]int{cur, next} {
			if pos >= 0 {
				prot = append(prot, pos)
				s.protRef[pos]++
			}
		}
		s.vehicleTiles[id] = prot

		if s.prefetchCh != nil && next >= 0 {
			if _, ok := s.resident[next]; !ok {
				select {
				case s.prefetchCh <- next:
				default: // prefetcher busy; the hint will recur next frame
				}
			}
		}
	}
	s.mu.Unlock()
}

// ReleaseVehicle drops vehicle id's eviction protections — the teardown half
// of AdviseVehicle, called when a fleet vehicle leaves the shared store so
// its last advised tiles stop pinning cache entries forever. Idempotent;
// unknown IDs are a no-op.
func (s *ShardStore) ReleaseVehicle(id int) {
	s.mu.Lock()
	for _, pos := range s.vehicleTiles[id] {
		if s.protRef[pos]--; s.protRef[pos] <= 0 {
			delete(s.protRef, pos)
		}
	}
	delete(s.vehicleTiles, id)
	s.mu.Unlock()
}

// tilePos maps a tile number to its position in idx.Tiles, -1 when the tile
// does not exist (sparse surveys skip empty tiles).
func (s *ShardStore) tilePos(tile int) int {
	pos := sort.Search(len(s.idx.Tiles), func(j int) bool { return s.idx.Tiles[j].Tile >= tile })
	if pos < len(s.idx.Tiles) && s.idx.Tiles[pos].Tile == tile {
		return pos
	}
	return -1
}

func (s *ShardStore) prefetchLoop() {
	defer s.prefetchWG.Done()
	for pos := range s.prefetchCh {
		s.mu.Lock()
		s.getTileLocked(pos, true)
		s.mu.Unlock()
	}
}

// CacheStats is a point-in-time snapshot of the shard cache counters.
type CacheStats struct {
	Hits, Misses, Prefetches, Evictions int64
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
		Prefetches:    s.prefetches.Value(),
		Evictions:     s.evictions.Value(),
		IOErrors:      s.ioErrors.Value(),
		ResidentBytes: s.residentBytes,
		ResidentTiles: s.lru.Len(),
	}
}
