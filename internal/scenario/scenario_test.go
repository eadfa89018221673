package scenario_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"adsim/internal/faultinject"
	"adsim/internal/scenario"
	"adsim/internal/scene"
)

func TestParseProgram(t *testing.T) {
	src := `
# compound program: world phases plus fault rules
phase 0-30s: density=8/km, driver=aggressive
phase 30-60s: blackout=2s@45s, illumination=0.4
DET:delay=30ms:every=5, LOC:err:p=0.2
`
	p, err := scenario.Parse("demo", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Timeline == nil || len(p.Timeline.Phases) != 2 {
		t.Fatalf("timeline = %+v, want 2 phases", p.Timeline)
	}
	ph0 := p.Timeline.Phases[0]
	if ph0.Start != 0 || ph0.End != 30 {
		t.Errorf("phase 0 range = %g-%g", ph0.Start, ph0.End)
	}
	if !ph0.Set.Has(scene.SetDensity) || ph0.Density != 8 {
		t.Errorf("phase 0 density = %+v", ph0)
	}
	if !ph0.Set.Has(scene.SetDriver) || ph0.Driver != scene.DriverAggressive {
		t.Errorf("phase 0 driver = %+v", ph0)
	}
	ph1 := p.Timeline.Phases[1]
	if want := (scene.TimeWindow{Start: 45, End: 47}); len(ph1.Blackouts) != 1 || ph1.Blackouts[0] != want {
		t.Errorf("phase 1 blackouts = %+v, want [%+v]", ph1.Blackouts, want)
	}
	if !ph1.Set.Has(scene.SetIllumination) || ph1.Illumination != 0.4 {
		t.Errorf("phase 1 illumination = %+v", ph1)
	}
	wantFaults := []scenario.FaultRule{
		{Stage: "DET", Delay: 30 * time.Millisecond, Every: 5},
		{Stage: "LOC", Err: true, P: 0.2},
	}
	if !reflect.DeepEqual(p.Faults, wantFaults) {
		t.Errorf("faults = %+v, want %+v", p.Faults, wantFaults)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty", "", "empty scenario"},
		{"comments only", "# nothing\n  \n", "empty scenario"},
		{"no range", "phase 30s: density=1/km", "needs a start-end range"},
		{"bad start", "phase x-30s: density=1/km", "bad start time"},
		{"bad end", "phase 0-y: density=1/km", "bad end time"},
		{"overlap", "phase 0-30s: density=1/km; phase 20-40s: density=2/km", "overlaps"},
		{"open not last", "phase 0-: density=1/km; phase 30-40s: density=2/km", "not last"},
		{"density range", "phase 0-10s: density=900/km", "outside [0,200]/km"},
		{"illumination range", "phase 0-10s: illumination=3", "outside (0,2]"},
		{"lanes range", "phase 0-10s: lanes=20", "outside [1,8]"},
		{"unknown clause", "phase 0-10s: fog=0.5", `unknown key "fog"`},
		{"unknown driver", "phase 0-10s: driver=sleepy", "unknown driver profile"},
		{"bad window", "phase 0-10s: blackout=2s", "needs duration@start"},
		{"window outside phase", "phase 0-10s: blackout=2s@40s", "outside phase range"},
		{"loop period", "phase 0-10s: loop=100m", "not a multiple of 6m"},
		{"loop with traffic", "phase 0-10s: density=5/km, loop=120m", "loop worlds are static"},
		{"loop inherits traffic", "phase 0-10s: density=5/km; phase 10-20s: loop=120m", "loop worlds are static"},
		{"bad fault rule", "DET", "needs STAGE:action"},
		{"fault validation", "DET:delay=1ms:every=2:burst=5", "exceeds its period"},
		{"unknown stage", "DTE:err:every=2", `unknown stage "DTE"`},
		{"io rule", "IO:err:p=0.2", `unknown stage "IO"`},
		{"nan density", "phase 0-10s: density=NaN", "outside [0,200]/km"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := scenario.Parse("t", tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse(%q) err = %v, want substring %q", tc.src, err, tc.want)
			}
		})
	}
}

// TestLoopClearedTrafficOK is the positive counterpart of the
// loop-topology rejections: clearing density before the loop phase (as
// the library's loop-closure program does) validates cleanly.
func TestLoopClearedTrafficOK(t *testing.T) {
	_, err := scenario.Parse("t",
		"phase 0-10s: density=5/km; phase 10-20s: density=0/km, peds=0/km, loop=120m")
	if err != nil {
		t.Fatal(err)
	}
}

func TestLibrary(t *testing.T) {
	names := scenario.Library()
	if len(names) < 6 {
		t.Fatalf("library has %d programs, want >= 6: %v", len(names), names)
	}
	for _, want := range []string{"rush-hour", "cut-in", "occlusion-burst", "blackout", "loop-closure", "mixed-stress"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("library %v is missing %q", names, want)
		}
	}
	for _, n := range names {
		p, err := scenario.Load(n)
		if err != nil {
			t.Fatalf("Load(%q): %v", n, err)
		}
		if p.Timeline == nil {
			t.Errorf("library program %q has no timeline", n)
		}
		// Every library program must compile into a generator and injector.
		cfg := p.Configure(scene.DefaultConfig(scene.Urban))
		if _, err := scene.New(cfg); err != nil {
			t.Errorf("library program %q does not build a scene: %v", n, err)
		}
		if _, err := faultinject.New(faultinject.FromProgram(p, 1)); err != nil {
			t.Errorf("library program %q does not build an injector: %v", n, err)
		}
	}
	if _, err := scenario.Load("no-such-program"); err == nil || !strings.Contains(err.Error(), "no library program") {
		t.Errorf("Load(no-such-program) err = %v", err)
	}
}

func TestResolve(t *testing.T) {
	if p, err := scenario.Resolve("rush-hour"); err != nil || p.Name != "rush-hour" {
		t.Fatalf("Resolve(rush-hour) = %v, %v", p, err)
	}
	path := filepath.Join(t.TempDir(), "custom.adsc")
	if err := os.WriteFile(path, []byte("phase 0-10s: density=3/km\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := scenario.Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "custom" || p.Timeline == nil {
		t.Fatalf("Resolve(file) = %+v", p)
	}
	if _, err := scenario.Resolve("/no/such/file.adsc"); err == nil {
		t.Fatal("Resolve of a missing file succeeded")
	}
}

// TestStringRoundTrip: the canonical rendering of every library program
// re-parses to an equivalent program.
func TestStringRoundTrip(t *testing.T) {
	for _, n := range scenario.Library() {
		p, err := scenario.Load(n)
		if err != nil {
			t.Fatal(err)
		}
		q, err := scenario.Parse(n, p.String())
		if err != nil {
			t.Fatalf("%s: re-parse of %q: %v", n, p.String(), err)
		}
		if !reflect.DeepEqual(p.Timeline, q.Timeline) || !reflect.DeepEqual(p.Faults, q.Faults) {
			t.Errorf("%s round-trip changed the program:\n%+v\n%+v", n, p, q)
		}
	}
}

// TestFaultinjectShim: the legacy fault grammar parses identically through
// the unified parser, and world statements are rejected on the fault path.
func TestFaultinjectShim(t *testing.T) {
	sc, err := faultinject.Parse("DET:delay=30ms:every=5, LOC:err:p=0.2", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Rules) != 2 || sc.Seed != 7 {
		t.Fatalf("shim parse = %+v", sc)
	}
	_, err = faultinject.Parse("phase 0-10s: density=1/km", 7)
	if err == nil || !strings.Contains(err.Error(), "scenario program") {
		t.Fatalf("world clauses through faultinject.Parse: err = %v", err)
	}
}

// FuzzParseScenarioProgram checks the unified parser never panics, and
// that every program it accepts actually compiles: the timeline builds a
// generator and the fault rules build an injector.
func FuzzParseScenarioProgram(f *testing.F) {
	for _, n := range scenario.Library() {
		p, err := scenario.Load(n)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p.Source)
	}
	f.Add("DET:delay=30ms:every=5, LOC:err:p=0.2")
	f.Add("phase 0-30s: density=8/km, driver=aggressive; phase 30-60s: blackout=2s@45s")
	f.Add("phase 0-10s: loop=120m, density=5/km")
	f.Add("phase 0-10s: density=NaN")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := scenario.Parse("fuzz", src)
		if err != nil {
			return
		}
		_ = p.String()
		cfg := p.Configure(scene.DefaultConfig(scene.Highway))
		cfg.Width, cfg.Height = 64, 32
		if _, err := scene.New(cfg); err != nil {
			t.Fatalf("accepted program does not build a scene: %v\nprogram: %q", err, src)
		}
		if _, err := faultinject.New(faultinject.FromProgram(p, 1)); err != nil {
			t.Fatalf("accepted program does not build an injector: %v\nprogram: %q", err, src)
		}
	})
}
