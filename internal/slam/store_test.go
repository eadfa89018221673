package slam

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"

	"adsim/internal/scene"
)

// buildWorld surveys an urban scenario into a prior map and round-trips it
// through the ADM1 serializer, so comparisons between the monolithic map
// and a shard directory built from it share the same serialization
// rounding. It returns the map and the scene config for replays.
func buildWorld(t testing.TB, frames int) (*PriorMap, scene.Config) {
	t.Helper()
	cfg := scene.DefaultConfig(scene.Urban)
	cfg.Width, cfg.Height = 512, 256
	gen, err := scene.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(DefaultConfig(), NewPriorMap())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		f := gen.Step()
		eng.Survey(f.Image, f.EgoPose)
	}
	var buf bytes.Buffer
	if _, err := eng.Map().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	mono, err := ReadPriorMap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mono.Len() < 4 {
		t.Fatalf("survey built only %d keyframes", mono.Len())
	}
	return mono, cfg
}

// shardView is a shard store as its writers hold it: reads and Adds go
// through a VehicleStore over the tile cache, while the cache's own methods
// and fields (Err, CacheStats, Index, lru) stay at hand.
type shardView struct {
	*ShardStore
	*VehicleStore
}

func (v shardView) Len() int                            { return v.VehicleStore.Len() }
func (v shardView) Candidates(z, w float64) []Keyframe  { return v.VehicleStore.Candidates(z, w) }
func (v shardView) NearestZ(z float64) (Keyframe, bool) { return v.VehicleStore.NearestZ(z) }
func (v shardView) Scan(fn func(Keyframe) bool)         { v.VehicleStore.Scan(fn) }

// openTestStore tiles mono into a fresh shard directory and opens it.
func openTestStore(t testing.TB, mono *PriorMap, pitch float64, opts ShardStoreOptions) shardView {
	t.Helper()
	dir := t.TempDir()
	if _, err := WriteShards(mono, dir, pitch); err != nil {
		t.Fatal(err)
	}
	store, err := OpenShardStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := store.Close(); err != nil {
			t.Errorf("store error after test: %v", err)
		}
	})
	return shardView{store, NewVehicleStore(0, store)}
}

// The acceptance bar: with a cache budget well below the map size, a
// sharded-store replay must deliver bit-identical estimates to the
// monolithic map — across tile boundaries, through cold-start
// relocalization, runtime map updates and loop-close scans — while the
// cache counters show the cache actually churning.
func TestShardedReplayBitIdentical(t *testing.T) {
	mono, cfg := buildWorld(t, 60)
	store := openTestStore(t, mono, 8, ShardStoreOptions{
		CacheBudget: mono.StorageBytes() / 4,
	})
	if store.Len() != mono.Len() {
		t.Fatalf("store has %d keyframes, monolithic %d", store.Len(), mono.Len())
	}

	engMono, err := NewEngine(DefaultConfig(), mono)
	if err != nil {
		t.Fatal(err)
	}
	engShard, err := NewEngineStore(DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	genA, err := scene.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	genB, err := scene.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		fa, fb := genA.Step(), genB.Step()
		ea := engMono.Localize(fa.Image)
		eb := engShard.Localize(fb.Image)
		if ea != eb {
			t.Fatalf("frame %d diverged:\nmonolithic %+v\nsharded    %+v", i, ea, eb)
		}
	}
	if engMono.Relocalizations() != engShard.Relocalizations() ||
		engMono.LoopClosures() != engShard.LoopClosures() ||
		engMono.MapUpdates() != engShard.MapUpdates() {
		t.Errorf("engine counters diverged: reloc %d/%d loop %d/%d updates %d/%d",
			engMono.Relocalizations(), engShard.Relocalizations(),
			engMono.LoopClosures(), engShard.LoopClosures(),
			engMono.MapUpdates(), engShard.MapUpdates())
	}
	if mono.Len() != store.Len() {
		t.Errorf("runtime map updates diverged: %d vs %d keyframes", mono.Len(), store.Len())
	}
	if err := store.Err(); err != nil {
		t.Fatal(err)
	}

	stats := store.CacheStats()
	if stats.Evictions == 0 {
		t.Errorf("no evictions under a quarter-size budget: %+v", stats)
	}
	if stats.Misses == 0 || stats.Hits == 0 {
		t.Errorf("cache never exercised: %+v", stats)
	}
}

// Tiles load only on a read's miss, so the cache counters are a pure
// function of the read sequence: the same drive replayed through two fresh
// stores under a tight budget counts the same hits, misses, evictions and
// resident tiles.
func TestShardCacheDeterministic(t *testing.T) {
	mono, cfg := buildWorld(t, 40)
	replay := func() CacheStats {
		store := openTestStore(t, mono, 8, ShardStoreOptions{
			CacheBudget: mono.StorageBytes() / 3, // two tiles: eviction picks among residents
		})
		eng, err := NewEngineStore(DefaultConfig(), store)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := scene.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			eng.Localize(gen.Step().Image)
		}
		return store.CacheStats()
	}
	first, second := replay(), replay()
	if first != second {
		t.Errorf("cache counters differ across identical replays:\n%+v\n%+v", first, second)
	}
	if first.Evictions == 0 || first.Hits == 0 {
		t.Errorf("cache never churned under a third-size budget: %+v", first)
	}
}

// Every read of the sharded store must agree with the monolithic map —
// including windows straddling tile boundaries and queries after runtime
// Adds land in the VehicleStore overlay over it.
func TestShardStoreMatchesMonolithicQueries(t *testing.T) {
	mono, _ := buildWorld(t, 50)
	store := openTestStore(t, mono, 8, ShardStoreOptions{CacheBudget: 1}) // thrash: one tile resident

	all := mono.All()
	maxZ := all[len(all)-1].Pose.Z

	compare := func(label string) {
		t.Helper()
		for z := -5.0; z < maxZ+5; z += 1.3 {
			for _, w := range []float64{0.5, 3, 9, 1e9} {
				a, b := mono.Candidates(z, w), store.Candidates(z, w)
				if len(a) != len(b) {
					t.Fatalf("%s: Candidates(%v,%v): %d vs %d keyframes", label, z, w, len(a), len(b))
				}
				for i := range a {
					if a[i].ID != b[i].ID || a[i].Pose != b[i].Pose {
						t.Fatalf("%s: Candidates(%v,%v)[%d]: %+v vs %+v", label, z, w, i, a[i], b[i])
					}
				}
			}
			na, oka := mono.NearestZ(z)
			nb, okb := store.NearestZ(z)
			if oka != okb || na.ID != nb.ID {
				t.Fatalf("%s: NearestZ(%v): (%d,%v) vs (%d,%v)", label, z, na.ID, oka, nb.ID, okb)
			}
		}
		var a, b []int
		mono.Scan(func(kf Keyframe) bool { a = append(a, kf.ID); return true })
		store.Scan(func(kf Keyframe) bool { b = append(b, kf.ID); return true })
		if len(a) != len(b) {
			t.Fatalf("%s: Scan lengths %d vs %d", label, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: Scan order diverges at %d: id %d vs %d", label, i, a[i], b[i])
			}
		}
	}
	compare("stored")

	// Runtime adds go to the overlay; IDs and merge order must still match.
	for _, z := range []float64{-2, maxZ / 2, maxZ + 3} {
		kps := []Keypoint{{X: 1, Y: 2}}
		descs := make([]Descriptor, 1)
		if ida, idb := mono.Add(scene.Pose{Z: z}, kps, descs), store.Add(scene.Pose{Z: z}, kps, descs); ida != idb {
			t.Fatalf("Add at z=%v assigned id %d monolithic, %d sharded", z, ida, idb)
		}
	}
	compare("with overlay")

	if stats := store.CacheStats(); stats.Evictions == 0 || stats.ResidentTiles != 1 {
		t.Errorf("1-byte budget should thrash down to one resident tile: %+v", stats)
	}
}

// Satellite-bug regression: Candidates and All used to return live
// sub-slices of the map's backing array, which insert() shifts — a retained
// result was silently corrupted by the runtime map-update path.
func TestCandidatesSnapshotStable(t *testing.T) {
	m := NewPriorMap()
	for i := 0; i < 8; i++ {
		m.Add(scene.Pose{Z: float64(10 + i)}, []Keypoint{{X: i}}, make([]Descriptor, 1))
	}
	cands := m.Candidates(13, 4)
	all := m.All()
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	wantCands := append([]Keyframe(nil), cands...)
	wantAll := append([]Keyframe(nil), all...)

	// Insert below the retained window: this shifts the backing array that
	// the old live sub-slices aliased.
	for i := 0; i < 8; i++ {
		m.Add(scene.Pose{Z: float64(i)}, []Keypoint{{X: 100 + i}}, make([]Descriptor, 1))
	}
	for i := range wantCands {
		if cands[i].ID != wantCands[i].ID || cands[i].Pose != wantCands[i].Pose {
			t.Fatalf("retained Candidates slice corrupted at %d: %+v, want %+v", i, cands[i], wantCands[i])
		}
	}
	for i := range wantAll {
		if all[i].ID != wantAll[i].ID {
			t.Fatalf("retained All slice corrupted at %d", i)
		}
	}
}

// hammerStore drives concurrent reads (Candidates, NearestZ, Scan) against
// a writer calling Add. Run under -race via `make check`.
func hammerStore(t *testing.T, store mapWriter) {
	t.Helper()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				z := float64((seed*31+i)%60) - 5
				if got := store.Candidates(z, 7); len(got) > store.Len() {
					t.Errorf("Candidates returned more keyframes than the store holds")
					return
				}
				store.NearestZ(z)
				if i%25 == 0 {
					n := 0
					store.Scan(func(Keyframe) bool { n++; return n < 100 })
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 80; i++ {
			store.Add(scene.Pose{Z: float64(i) * 0.7}, []Keypoint{{X: i, Y: i}}, make([]Descriptor, 1))
		}
	}()
	wg.Wait()
}

func TestConcurrentStoreAccess(t *testing.T) {
	mono, _ := buildWorld(t, 40)
	t.Run("priormap", func(t *testing.T) {
		var buf bytes.Buffer
		if _, err := mono.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		m, err := ReadPriorMap(&buf)
		if err != nil {
			t.Fatal(err)
		}
		hammerStore(t, m)
	})
	t.Run("shardstore", func(t *testing.T) {
		store := openTestStore(t, mono, 8, ShardStoreOptions{
			CacheBudget: mono.StorageBytes() / 4,
		})
		hammerStore(t, store)
		if err := store.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestShardIndexValidation(t *testing.T) {
	mono, _ := buildWorld(t, 30)
	dir := t.TempDir()
	idx, err := WriteShards(mono, dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Tiles) < 2 {
		t.Fatalf("expected multiple tiles, got %d", len(idx.Tiles))
	}
	got, err := ReadShardIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Keyframes != mono.Len() || got.MaxID != idx.MaxID || len(got.Tiles) != len(idx.Tiles) {
		t.Errorf("index round trip mismatch: %+v vs %+v", got, idx)
	}
	var total int64
	for _, ti := range got.Tiles {
		total += ti.Bytes
	}
	if total != got.Bytes {
		t.Errorf("index bytes %d != sum of tiles %d", got.Bytes, total)
	}
	// The serialized density must be conserved by sharding (minus one map
	// header per extra tile) — sharding cannot change the storage story.
	overhead := int64(len(got.Tiles)-1) * serMapHeader
	if want := mono.SerializedBytes() + overhead; got.Bytes != want {
		t.Errorf("shard bytes %d, want monolithic %d + tile headers %d", got.Bytes, mono.SerializedBytes(), overhead)
	}

	if _, err := OpenShardStore(t.TempDir(), ShardStoreOptions{}); err == nil {
		t.Error("opening an empty directory should fail")
	}
}

// BenchmarkShardedReloc compares the cold-start (whole-map) relocalization
// latency of the monolithic map against the sharded store: warm cache,
// then a budget small enough that every reloc pages tiles from disk.
func BenchmarkShardedReloc(b *testing.B) {
	mono, cfg := buildWorld(b, 60)
	dir := b.TempDir()
	if _, err := WriteShards(mono, dir, 8); err != nil {
		b.Fatal(err)
	}
	gen, err := scene.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	frame := gen.Step().Image

	reloc := func(b *testing.B, store MapStore) {
		b.Helper()
		eng, err := NewEngineStore(DefaultConfig(), store)
		if err != nil {
			b.Fatal(err)
		}
		eng.Localize(frame) // cold start: full-map relocalization
	}
	b.Run("monolithic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reloc(b, mono)
		}
	})
	b.Run("sharded-warm", func(b *testing.B) {
		store, err := OpenShardStore(dir, ShardStoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer store.Close()
		reloc(b, store) // fault everything in before timing
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reloc(b, store)
		}
	})
	b.Run("sharded-tight-budget", func(b *testing.B) {
		store, err := OpenShardStore(dir, ShardStoreOptions{CacheBudget: mono.StorageBytes() / 8})
		if err != nil {
			b.Fatal(err)
		}
		defer store.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reloc(b, store)
		}
	})
}

// NearestZ across every tile boundary — at each tile's end keyframes, one
// ulp either side of them, and on exact ties between the keyframes either
// side of a boundary — must answer exactly as the monolithic map does,
// while paging in the tile above z only when it could hold the answer.
func TestShardNearestZAtTileBoundaries(t *testing.T) {
	// A synthetic map on half-meter Z values, so midpoints are exact ties,
	// with tiles both wide and narrow (pitch 8).
	synth := NewPriorMap()
	for _, z := range []float64{0, 3, 6, 10, 13, 17, 24, 31, 33, 47.5, 48} {
		synth.Add(scene.Pose{Z: z}, []Keypoint{{X: 1}}, make([]Descriptor, 1))
	}
	surveyed, _ := buildWorld(t, 40)
	for _, tc := range []struct {
		name string
		mono *PriorMap
	}{{"synthetic", synth}, {"surveyed", surveyed}} {
		t.Run(tc.name, func(t *testing.T) {
			store := openTestStore(t, tc.mono, 8, ShardStoreOptions{CacheBudget: 1})
			tiles := store.Index().Tiles
			if len(tiles) < 3 {
				t.Fatalf("want several tiles, got %d", len(tiles))
			}
			var zs []float64
			for i, ti := range tiles {
				for _, z := range []float64{ti.ZMin, ti.ZMax} {
					zs = append(zs, math.Nextafter(z, math.Inf(-1)), z, math.Nextafter(z, math.Inf(1)))
				}
				if i > 0 {
					mid := (tiles[i-1].ZMax + ti.ZMin) / 2
					for _, d := range []float64{-1, 0, 1} {
						zs = append(zs, mid+d*1e-9, math.Nextafter(mid, mid+d))
					}
				}
			}
			zs = append(zs, tiles[0].ZMin-5, tiles[len(tiles)-1].ZMax+5)
			for z := tiles[0].ZMin - 1; z <= tiles[len(tiles)-1].ZMax+1; z += 0.5 {
				zs = append(zs, z)
			}
			for _, z := range zs {
				want, _ := tc.mono.NearestZ(z)
				got, ok := store.NearestZ(z)
				if !ok || got.ID != want.ID || got.Pose != want.Pose {
					t.Fatalf("NearestZ(%v) = id %d z %v, monolithic id %d z %v", z, got.ID, got.Pose.Z, want.ID, want.Pose.Z)
				}
			}
			// A query on a tile's last keyframe is answered from that tile
			// alone: the next tile's keyframes are all farther away.
			for i := range tiles[:len(tiles)-1] {
				cold := openTestStore(t, tc.mono, 8, ShardStoreOptions{})
				cold.NearestZ(tiles[i].ZMax)
				if st := cold.CacheStats(); st.Misses != 1 {
					t.Errorf("NearestZ on tile %d's last keyframe loaded %d tiles, want 1", i, st.Misses)
				}
			}
		})
	}
}

// Equal-Z keyframes keep their order through ADM1. Add puts a keyframe
// before its equal-Z peers, so the source map holds id 6 before id 5 at
// Z=13; ReadPriorMap round trips keep that order, and so does a shard
// store built from the map, which then answers NearestZ just below 13, and
// streams its keyframes, as the map does.
func TestEqualZOrderSurvivesADM1(t *testing.T) {
	synth := NewPriorMap()
	for _, z := range []float64{0, 3, 6, 10, 13, 13, 17, 24, 31} {
		synth.Add(scene.Pose{Z: z}, []Keypoint{{X: 1}}, make([]Descriptor, 1))
	}
	ids := func(kfs []Keyframe) []int {
		out := make([]int, len(kfs))
		for i, kf := range kfs {
			out[i] = kf.ID
		}
		return out
	}
	want := ids(synth.All())
	if !slices.Equal(want, []int{1, 2, 3, 4, 6, 5, 7, 8, 9}) {
		t.Fatalf("source order %v: Add no longer puts a keyframe before its equal-Z peers", want)
	}
	m := synth
	for trip := 1; trip <= 2; trip++ {
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		var err error
		if m, err = ReadPriorMap(&buf); err != nil {
			t.Fatal(err)
		}
		if got := ids(m.All()); !slices.Equal(got, want) {
			t.Fatalf("round trip %d: order %v, written %v", trip, got, want)
		}
	}
	store := openTestStore(t, synth, 8, ShardStoreOptions{CacheBudget: 1})
	z := math.Nextafter(13, math.Inf(-1))
	if kf, _ := synth.NearestZ(z); kf.ID != 6 {
		t.Fatalf("source map: NearestZ(%v) = id %d, want 6", z, kf.ID)
	}
	if kf, ok := store.NearestZ(z); !ok || kf.ID != 6 {
		t.Fatalf("shard store: NearestZ(%v) = id %d, source map id 6", z, kf.ID)
	}
	var scanned []Keyframe
	store.Scan(func(kf Keyframe) bool { scanned = append(scanned, kf); return true })
	if got := ids(scanned); !slices.Equal(got, want) {
		t.Fatalf("shard store scans %v, source map %v", got, want)
	}
}

// A Scan (relocalization, loop closing) over a store whose budget holds two
// tiles must leave the resident set and the LRU order as tracking left
// them, while still streaming every keyframe and counting its loads; with
// room in the budget it caches what it loads, evicting nothing.
func TestScanLeavesCacheAlone(t *testing.T) {
	mono, _ := buildWorld(t, 40)
	probe := openTestStore(t, mono, 8, ShardStoreOptions{})
	tiles := probe.Index().Tiles
	if len(tiles) < 4 {
		t.Fatalf("want at least 4 tiles, got %d", len(tiles))
	}
	a, b := 1, 2
	store := openTestStore(t, mono, 8, ShardStoreOptions{
		CacheBudget: tiles[a].MemBytes + tiles[b].MemBytes,
	})
	store.Candidates(tiles[a].ZMin, 0)
	store.Candidates(tiles[b].ZMin, 0)
	store.Candidates(tiles[a].ZMin, 0) // LRU order now a, b
	lruOrder := func() []int {
		var pos []int
		for e := store.lru.Front(); e != nil; e = e.Next() {
			pos = append(pos, e.Value.(*residentTile).pos)
		}
		return pos
	}
	before, beforeStats := lruOrder(), store.CacheStats()
	if len(before) != 2 || before[0] != a || before[1] != b {
		t.Fatalf("setup: LRU order %v, want [%d %d]", before, a, b)
	}

	var got, want []int
	mono.Scan(func(kf Keyframe) bool { want = append(want, kf.ID); return true })
	store.Scan(func(kf Keyframe) bool { got = append(got, kf.ID); return true })
	if !slices.Equal(got, want) {
		t.Fatalf("Scan streamed %d keyframes, monolithic %d (or in another order)", len(got), len(want))
	}
	if after := lruOrder(); !slices.Equal(after, before) {
		t.Errorf("Scan changed the LRU order: %v, was %v", after, before)
	}
	st := store.CacheStats()
	if st.Evictions != beforeStats.Evictions || st.ResidentTiles != 2 || st.ResidentBytes != beforeStats.ResidentBytes {
		t.Errorf("Scan disturbed the resident set: %+v, was %+v", st, beforeStats)
	}
	nonResident := int64(len(tiles) - 2)
	if st.Misses-beforeStats.Misses != nonResident || st.Hits-beforeStats.Hits != 2 {
		t.Errorf("Scan counted %d misses and %d hits, want %d and 2",
			st.Misses-beforeStats.Misses, st.Hits-beforeStats.Hits, nonResident)
	}

	roomy := openTestStore(t, mono, 8, ShardStoreOptions{})
	roomy.Candidates(tiles[b].ZMin, 0)
	roomy.Scan(func(Keyframe) bool { return true })
	roomy.Scan(func(Keyframe) bool { return true })
	if st := roomy.CacheStats(); st.ResidentTiles != len(tiles) || st.Misses != int64(len(tiles)) || st.Evictions != 0 {
		t.Errorf("two Scans of an unbudgeted store: %+v, want every tile loaded once and resident", st)
	}
	if front := roomy.lru.Front().Value.(*residentTile).pos; front != b {
		t.Errorf("most recently used tile after Scan is %d, want tracking's %d", front, b)
	}
}
