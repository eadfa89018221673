package main

import (
	"flag"
	"strings"
	"testing"
)

// The path rule's specification: which path honours each flag. wantShared
// leads with -vehicles, the flag that selects the path.
var (
	wantFleetOnly = []string{"assign", "admission", "admission-target", "max-vehicles", "phase", "add-at", "remove-at", "remove-vehicle", "fault-vehicle"}
	wantSoloOnly  = []string{"tail", "ladder", "anytime", "hist", "trace", "telemetry", "base"}
	wantShared    = []string{"vehicles", "scenario", "seed", "list-scenarios", "frames", "width", "height", "survey", "dnn", "inflight", "v", "deadline", "fault", "fault-seed"}
)

// TestFlagsClassified: every flag is shared or honoured by one path only,
// so a new flag cannot dodge the path rule.
func TestFlagsClassified(t *testing.T) {
	known := map[string]bool{}
	for _, list := range [][]string{wantFleetOnly, wantSoloOnly, wantShared} {
		for _, name := range list {
			if flag.Lookup(name) == nil {
				t.Errorf("-%s is no flag", name)
			}
			known[name] = true
		}
	}
	flag.VisitAll(func(f *flag.Flag) {
		if !known[f.Name] && !strings.HasPrefix(f.Name, "test.") {
			t.Errorf("-%s is neither shared nor path-specific", f.Name)
		}
	})
}

// TestCheckPath pins the path rule: a flag that only the fleet honours is
// rejected without -vehicles, one that only a Runner honours (and a
// scenario program as -scenario) is rejected with it, and -base needs a
// program to pick the world of.
func TestCheckPath(t *testing.T) {
	flags := func(names ...string) map[string]bool {
		set := map[string]bool{}
		for _, n := range names {
			set[n] = true
		}
		return set
	}
	type tc struct {
		name     string
		set      map[string]bool
		scenario string
		want     string // substring of the error; "" wants nil
	}
	var cases []tc
	for _, f := range wantFleetOnly {
		cases = append(cases,
			tc{"fleet-only " + f + " solo", flags(f), "urban", "-" + f + " drives a fleet; it needs -vehicles"},
			tc{"fleet-only " + f + " fleet", flags("vehicles", f), "urban", ""})
	}
	for _, f := range wantSoloOnly {
		scenario := "urban"
		if f == "base" {
			scenario = "rush-hour"
		}
		cases = append(cases,
			tc{"solo-only " + f + " fleet", flags("vehicles", f), scenario, "-" + f + " drives one Runner"},
			tc{"solo-only " + f + " solo", flags(f), scenario, ""})
	}
	cases = append(cases,
		tc{"defaults", flags(), "urban", ""},
		tc{"fleet of one", flags("vehicles"), "highway", ""},
		tc{"shared flags solo", flags(wantShared[1:]...), "highway", ""},
		tc{"shared flags fleet", flags(wantShared...), "highway", ""},
		tc{"program solo", flags("scenario"), "./my.adsc", ""},
		tc{"program fleet", flags("vehicles", "scenario"), "rush-hour", "with -assign"},
		tc{"base with a world", flags("base"), "highway", "-scenario highway is a world already"},
		tc{"base with a program", flags("base"), "cut-in", ""},
	)
	for _, c := range cases {
		err := checkPath(c.set, c.scenario)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: no error, want one containing %q", c.name, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q, want one containing %q", c.name, err, c.want)
		}
	}
}
