package slam

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"adsim/internal/scene"
)

// sameKeyframeSeq compares two read results by identity-pinning fields; IDs
// are unique across base and overlays, so ID+Pose equality per position is
// equality of the sequences.
func sameKeyframeSeq(got, want []Keyframe) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d keyframes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Pose != want[i].Pose {
			return fmt.Errorf("keyframe %d: got ID=%d %+v, want ID=%d %+v",
				i, got[i].ID, got[i].Pose, want[i].ID, want[i].Pose)
		}
	}
	return nil
}

// The fleet contract: K goroutine "vehicles" hammer one tightly-budgeted
// shared ShardStore through per-vehicle views — concurrent Candidates,
// NearestZ, Scan and private runtime Adds — and every read stays
// bit-identical to the same vehicle's private monolithic map. Vehicles must
// never observe each other's runtime keyframes, and the shared cache
// thrashing underneath must never leak into results. Run under -race by
// `make race`.
func TestFleetVehicleViewsBitIdentical(t *testing.T) {
	mono, _ := buildWorld(t, 50)
	var buf bytes.Buffer
	if _, err := mono.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	store := openTestStore(t, mono, 8, ShardStoreOptions{
		CacheBudget: mono.StorageBytes() / 8, // tight: constant eviction
	})

	const vehicles = 6
	var wg sync.WaitGroup
	errCh := make(chan error, vehicles)
	for v := 0; v < vehicles; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errCh <- fmt.Errorf("vehicle %d: %s", v, fmt.Sprintf(format, args...))
			}
			// Private reference: the same survey as a monolithic map, which
			// receives this vehicle's runtime Adds and nothing else.
			ref, err := ReadPriorMap(bytes.NewReader(raw))
			if err != nil {
				fail("decoding reference: %v", err)
				return
			}
			view := NewVehicleStore(v, store.ShardStore)
			rng := rand.New(rand.NewSource(int64(100 + v)))
			for iter := 0; iter < 40; iter++ {
				z := rng.Float64()*80 - 10
				if iter%4 == v%4 {
					pose := scene.Pose{X: float64(v), Z: z}
					kps := []Keypoint{{X: v, Y: iter, Score: 7}}
					descs := []Descriptor{{uint64(v), uint64(iter), 0, 1}}
					if got, want := view.Add(pose, kps, descs), ref.Add(pose, kps, descs); got != want {
						fail("iter %d: Add assigned ID %d, solo map assigned %d", iter, got, want)
						return
					}
				}
				window := 4 + rng.Float64()*12
				if err := sameKeyframeSeq(view.Candidates(z, window), ref.Candidates(z, window)); err != nil {
					fail("iter %d: Candidates(%v, %v): %v", iter, z, window, err)
					return
				}
				gk, gok := view.NearestZ(z)
				wk, wok := ref.NearestZ(z)
				if gok != wok || gk.ID != wk.ID || gk.Pose != wk.Pose {
					fail("iter %d: NearestZ(%v) = %d/%v, want %d/%v", iter, z, gk.ID, gok, wk.ID, wok)
					return
				}
				if iter%13 == 0 {
					var got, want []Keyframe
					view.Scan(func(kf Keyframe) bool { got = append(got, kf); return true })
					ref.Scan(func(kf Keyframe) bool { want = append(want, kf); return true })
					if err := sameKeyframeSeq(got, want); err != nil {
						fail("iter %d: Scan: %v", iter, err)
						return
					}
				}
			}
			if view.Len() != ref.Len() {
				fail("final Len %d, want %d", view.Len(), ref.Len())
			}
		}(v)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if err := store.Err(); err != nil {
		t.Fatal(err)
	}
	if stats := store.CacheStats(); stats.Evictions == 0 {
		t.Errorf("no evictions under an eighth-size budget: %+v", stats)
	}
}
