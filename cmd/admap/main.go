// Command admap plays the paper's map-provider role: it surveys a
// synthetic scenario into a prior map, saves/loads the compact on-disk
// format, shards a map into a tiled directory for cache-bounded serving,
// reports storage density (the basis of the paper's 41 TB US-map
// constraint), and verifies a saved map by localizing a replay against it.
//
// Usage:
//
//	admap -build map.adm -scenario urban -frames 120    # survey and save
//	admap -info map.adm                                  # inspect
//	admap -shard mapdir -from map.adm -tile 64           # split into tiles
//	admap -shard mapdir -scenario urban -frames 120      # survey + shard
//	admap -shardinfo mapdir                              # inspect shards
//	admap -verify map.adm -scenario urban -frames 60     # localize a replay
//	admap -verify mapdir -cache-budget 65536             # ...through the LRU cache
package main

import (
	"flag"
	"fmt"
	"os"

	"adsim/internal/scene"
	"adsim/internal/slam"
)

func main() {
	var (
		build     = flag.String("build", "", "survey a scenario and write the map to this file")
		info      = flag.String("info", "", "print statistics for a saved map")
		shard     = flag.String("shard", "", "write a tiled shard directory (source: -from or a survey)")
		shardinfo = flag.String("shardinfo", "", "print statistics for a shard directory")
		verify    = flag.String("verify", "", "localize a scenario replay against a saved map file or shard directory")
		from      = flag.String("from", "", "source .adm map for -shard (default: survey -scenario)")
		tile      = flag.Float64("tile", slam.DefaultTilePitch, "tile pitch in meters for -shard")
		budget    = flag.Int64("cache-budget", 0, "shard cache budget in bytes for -verify on a directory (0 = unlimited)")
		scenario  = flag.String("scenario", "urban", "scenario kind: urban or highway")
		frames    = flag.Int("frames", 120, "frames to survey / verify")
		width     = flag.Int("width", 640, "frame width")
		height    = flag.Int("height", 320, "frame height")
		seed      = flag.Int64("seed", 1, "scenario seed")
	)
	flag.Parse()

	switch {
	case *build != "":
		if err := runBuild(*build, *scenario, *frames, *width, *height, *seed); err != nil {
			fatal(err)
		}
	case *info != "":
		if err := runInfo(*info); err != nil {
			fatal(err)
		}
	case *shard != "":
		if err := runShard(*shard, *from, *tile, *scenario, *frames, *width, *height, *seed); err != nil {
			fatal(err)
		}
	case *shardinfo != "":
		if err := runShardInfo(*shardinfo); err != nil {
			fatal(err)
		}
	case *verify != "":
		if err := runVerify(*verify, *scenario, *frames, *width, *height, *seed, *budget); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "admap: %v\n", err)
	os.Exit(1)
}

func sceneConfig(kind string, frames, w, h int, seed int64) (scene.Config, error) {
	cfg := scene.DefaultConfig(scene.Urban)
	switch kind {
	case "urban":
	case "highway":
		cfg = scene.DefaultConfig(scene.Highway)
	default:
		return cfg, fmt.Errorf("unknown scenario %q", kind)
	}
	cfg.Width, cfg.Height = w, h
	cfg.Seed = seed
	return cfg, nil
}

// usTB extrapolates a serialized byte density (bytes per meter of road) to
// the US public road network, in TB — the same basis everywhere: build,
// shard and the storage experiment all quote one number.
func usTB(bytes int64, meters float64) float64 {
	return float64(bytes) / meters * 6.68e9 / 1e12
}

// surveyMap surveys a scenario into a fresh prior map.
func surveyMap(kind string, frames, w, h int, seed int64) (*slam.PriorMap, float64, error) {
	cfg, err := sceneConfig(kind, frames, w, h, seed)
	if err != nil {
		return nil, 0, err
	}
	gen, err := scene.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	eng, err := slam.NewEngine(slam.DefaultConfig(), slam.NewPriorMap())
	if err != nil {
		return nil, 0, err
	}
	var meters float64
	for i := 0; i < frames; i++ {
		f := gen.Step()
		eng.Survey(f.Image, f.EgoPose)
		meters = f.EgoPose.Z
	}
	return eng.Map(), meters, nil
}

func runBuild(path, kind string, frames, w, h int, seed int64) error {
	m, meters, err := surveyMap(kind, frames, w, h, seed)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := m.WriteTo(f)
	if err != nil {
		return err
	}
	fmt.Printf("surveyed %.0f m (%d frames) -> %v\n", meters, frames, m)
	fmt.Printf("wrote %s: %d bytes (%.1f KB/m; US extrapolation %.1f TB)\n",
		path, n, float64(n)/meters/1024, usTB(n, meters))
	return nil
}

func runInfo(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := slam.ReadPriorMap(f)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %v\n", path, m)
	if m.Len() == 0 {
		return nil
	}
	all := m.All()
	first, last := all[0], all[len(all)-1]
	features := 0
	for _, kf := range all {
		features += len(kf.Descriptors)
	}
	fmt.Printf("coverage  z = %.1f .. %.1f m\n", first.Pose.Z, last.Pose.Z)
	fmt.Printf("features  %d total (%.0f per keyframe)\n",
		features, float64(features)/float64(m.Len()))
	fmt.Printf("density   %d serialized bytes (%d resident)\n",
		m.SerializedBytes(), m.StorageBytes())
	return nil
}

func runShard(dir, from string, pitch float64, kind string, frames, w, h int, seed int64) error {
	var m *slam.PriorMap
	if from != "" {
		f, err := os.Open(from)
		if err != nil {
			return err
		}
		defer f.Close()
		if m, err = slam.ReadPriorMap(f); err != nil {
			return err
		}
	} else {
		var err error
		if m, _, err = surveyMap(kind, frames, w, h, seed); err != nil {
			return err
		}
	}
	if m.Len() == 0 {
		return fmt.Errorf("refusing to shard an empty map")
	}
	idx, err := slam.WriteShards(m, dir, pitch)
	if err != nil {
		return err
	}
	printIndex(dir, idx)
	return nil
}

func runShardInfo(dir string) error {
	idx, err := slam.ReadShardIndex(dir)
	if err != nil {
		return err
	}
	printIndex(dir, idx)
	for _, t := range idx.Tiles {
		fmt.Printf("  %s  tile %4d  z = %8.1f .. %8.1f m  %4d keyframes  %7d B\n",
			t.File, t.Tile, t.ZMin, t.ZMax, t.Keyframes, t.Bytes)
	}
	return nil
}

func printIndex(dir string, idx *slam.ShardIndex) {
	fmt.Printf("%s: %d tiles (%.0f m pitch), %d keyframes, %d bytes\n",
		dir, len(idx.Tiles), idx.TilePitch, idx.Keyframes, idx.Bytes)
	if len(idx.Tiles) > 0 {
		span := idx.Tiles[len(idx.Tiles)-1].ZMax - idx.Tiles[0].ZMin
		if span > 0 {
			fmt.Printf("coverage  z = %.1f .. %.1f m (%.1f KB/m; US extrapolation %.1f TB)\n",
				idx.Tiles[0].ZMin, idx.Tiles[len(idx.Tiles)-1].ZMax,
				float64(idx.Bytes)/span/1024, usTB(idx.Bytes, span))
		}
	}
}

// openStore opens path as either a monolithic .adm file or a shard
// directory (served through the byte-budgeted LRU cache, the replay's map
// updates landing in the engine's overlay over it).
func openStore(path string, budget int64) (slam.MapStore, *slam.ShardStore, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	if fi.IsDir() {
		s, err := slam.OpenShardStore(path, slam.ShardStoreOptions{CacheBudget: budget})
		if err != nil {
			return nil, nil, err
		}
		return s, s, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	m, err := slam.ReadPriorMap(f)
	if err != nil {
		return nil, nil, err
	}
	return m, nil, nil
}

func runVerify(path, kind string, frames, w, h int, seed, budget int64) error {
	store, shards, err := openStore(path, budget)
	if err != nil {
		return err
	}
	if shards != nil {
		defer shards.Close()
	}
	cfg, err := sceneConfig(kind, frames, w, h, seed)
	if err != nil {
		return err
	}
	gen, err := scene.New(cfg)
	if err != nil {
		return err
	}
	eng, err := slam.NewEngineStore(slam.DefaultConfig(), store)
	if err != nil {
		return err
	}
	tracked, reloc := 0, 0
	var worst float64
	for i := 0; i < frames; i++ {
		fr := gen.Step()
		est := eng.Localize(fr.Image)
		if est.Relocalized {
			reloc++
		}
		if est.Tracked {
			tracked++
			if e := est.Pose.Z - fr.EgoPose.Z; e > worst || -e > worst {
				if e < 0 {
					e = -e
				}
				worst = e
			}
		}
	}
	fmt.Printf("localized %d/%d frames (worst error %.2f m, %d relocalization frames)\n",
		tracked, frames, worst, reloc)
	if shards != nil {
		st := shards.CacheStats()
		fmt.Printf("shard cache: %d hits, %d misses, %d evictions, %d/%d tiles resident (%d B)\n",
			st.Hits, st.Misses, st.Evictions,
			st.ResidentTiles, len(shards.Index().Tiles), st.ResidentBytes)
		if err := shards.Err(); err != nil {
			return err
		}
	}
	if tracked < frames/2 {
		return fmt.Errorf("map verification failed: tracked %d/%d", tracked, frames)
	}
	return nil
}
