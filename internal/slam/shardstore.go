package slam

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ShardStoreOptions parameterizes OpenShardStore.
type ShardStoreOptions struct {
	// CacheBudget bounds the resident-footprint estimate of cached tiles
	// (CacheStats.ResidentBytes), in bytes. The most recently used tile is
	// never evicted, so the effective floor is one tile. ≤ 0 means unlimited.
	CacheBudget int64
}

// ShardStore is the tiled on-disk prior-map store: a directory of ADM1
// shard files (see WriteShards) paged on demand through a byte-budgeted
// LRU cache. It is read-only survey data: reads stitch across tile
// boundaries so results are bit-identical to the equivalent monolithic
// PriorMap, and a writer (a LOC engine's runtime map updates) wraps it in
// a VehicleStore, whose overlay takes the Adds. Every tile load is a read's
// miss, so the cache counters (CacheStats) are a pure function of the read
// sequence.
//
// All methods are safe for concurrent use. Tile loads happen under the
// store lock, so concurrent readers serialize on a cache miss.
type ShardStore struct {
	dir    string
	idx    ShardIndex
	budget int64

	mu            sync.Mutex
	resident      map[int]*residentTile // index-position → cache entry
	lru           *list.List            // front = most recently used
	residentBytes int64
	err           error // first I/O error; kept as a sticky record for Err

	hits, misses, evictions, ioErrors int64
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
	return &ShardStore{
		dir:      dir,
		idx:      *idx,
		budget:   opts.CacheBudget,
		resident: make(map[int]*residentTile),
		lru:      list.New(),
	}, nil
}

// Index returns a copy of the store's shard index.
func (s *ShardStore) Index() ShardIndex { return s.idx }

// Err returns the first I/O error the store has hit — a sticky record, not
// a gate: load failures are transient (the read that hit the error
// degrades to whatever is resident, and later accesses retry the tile).
// Callers that need hard guarantees should check Err after a replay;
// CacheStats.IOErrors tallies every failure.
func (s *ShardStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close returns Err. The store holds no open files or goroutines between
// reads, so there is nothing else to release.
func (s *ShardStore) Close() error { return s.Err() }

// Len reports the stored keyframes.
func (s *ShardStore) Len() int { return s.idx.Keyframes }

// getTileLocked returns tile pos's keyframes through the LRU cache, loading
// the tile on a miss; the caller holds s.mu. A tracking read makes the tile
// the most recently used, inserting a loaded one and evicting per the
// budget. A scan read (Scan's) never reorders or evicts: it caches a loaded
// tile at the cold end only if the budget has room and otherwise reads it
// through. Either way every load counts as a miss and every failed load as
// an I/O error.
func (s *ShardStore) getTileLocked(pos int, scan bool) []Keyframe {
	if rt := s.resident[pos]; rt != nil {
		s.hits++
		if !scan {
			s.lru.MoveToFront(rt.elem)
		}
		return rt.kfs
	}
	s.misses++
	kfs, err := s.loadTile(pos)
	if err != nil {
		// Transient degradation, not a brick: record the first error (Err
		// stays a sticky record), count it, and leave the tile loadable —
		// the next access over this range retries, so a flaky disk costs
		// coverage on the affected reads only.
		if s.err == nil {
			s.err = err
		}
		s.ioErrors++
		return nil
	}
	rt := &residentTile{pos: pos, kfs: kfs, mem: storageBytes(kfs)}
	switch {
	case !scan:
		rt.elem = s.lru.PushFront(rt)
	case s.budget > 0 && s.residentBytes+rt.mem > s.budget:
		return kfs
	default:
		rt.elem = s.lru.PushBack(rt)
	}
	s.resident[pos] = rt
	s.residentBytes += rt.mem
	for s.budget > 0 && s.residentBytes > s.budget && s.lru.Len() > 1 {
		victim := s.lru.Back().Value.(*residentTile)
		s.lru.Remove(victim.elem)
		delete(s.resident, victim.pos)
		s.residentBytes -= victim.mem
		s.evictions++
	}
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
// ascending-Z order, stitched across every overlapping tile. The result is
// a snapshot the caller owns.
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
	return stored
}

// NearestZ returns the keyframe closest to z across the shards.
// Only the (at most two) tiles that can contain the nearest stored
// keyframe are consulted, so a NearestZ never faults in more than two
// tiles, and the one above z only when it could hold a nearer keyframe.
// Ties prefer the lower-Z neighbor, as PriorMap.NearestZ does.
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
	// Every keyframe of the one above is at least its ZMin-z away and has a
	// higher Z than any below it, so it cannot win once best is that near.
	i := sort.Search(len(s.idx.Tiles), func(j int) bool { return s.idx.Tiles[j].ZMin > z })
	for _, pos := range []int{i - 1, i} {
		if pos < 0 || pos >= len(s.idx.Tiles) {
			continue
		}
		if pos == i && have && abs(best.Pose.Z-z) <= s.idx.Tiles[i].ZMin-z {
			break
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

// Scan streams every keyframe in ascending-Z order, one tile at a time —
// the relocalization worst case runs in bounded memory. Scan never evicts a
// tile or reorders the LRU, so a loop-closing sweep leaves the tracking
// working set resident: a tile it loads is cached at the cold end when the
// budget has room, and read through otherwise.
// fn runs without the store lock held, so concurrent reads proceed between
// tiles.
func (s *ShardStore) Scan(fn func(Keyframe) bool) {
	for pos := range s.idx.Tiles {
		s.mu.Lock()
		kfs := s.getTileLocked(pos, true)
		s.mu.Unlock()
		for _, kf := range kfs {
			if !fn(kf) {
				return
			}
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

// CacheStats snapshots the cache counters.
func (s *ShardStore) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CacheStats{
		Hits:          s.hits,
		Misses:        s.misses,
		Evictions:     s.evictions,
		IOErrors:      s.ioErrors,
		ResidentBytes: s.residentBytes,
		ResidentTiles: s.lru.Len(),
	}
}
