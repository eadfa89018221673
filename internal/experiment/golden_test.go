package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<id>.golden from this run's renders")

// wallClock lists the experiments whose output depends on measured time.
// Every other experiment renders the same bytes on every run at one sizing.
var wallClock = map[string]bool{"fig7": true}

// TestGolden pins, byte for byte, the rendered output of every experiment
// that does not run on the wall clock, at the unit-test sizing. It renders
// the results the tests in experiment_test.go already produced (it runs an
// experiment itself only when selected alone), so it adds no experiment
// runs to the suite. Regenerate after an intended output change with
//
//	go test ./internal/experiment -run TestGolden -update
func TestGolden(t *testing.T) {
	for _, id := range IDs() {
		if wallClock[id] {
			continue
		}
		res, ok := produced[id]
		if !ok {
			res = run(t, id)
		}
		got, path := res.Render(), filepath.Join("testdata", id+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (generate it with -update)", id, err)
		}
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s: render differs from %s at line %d:\n got: %q\nwant: %q", id, path, i+1, g, w)
				break
			}
		}
	}
}
