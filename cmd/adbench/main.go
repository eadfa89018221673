// Command adbench regenerates the paper's evaluation: every table and
// figure is a named experiment.
//
// Usage:
//
//	adbench -list
//	adbench -experiment fig10
//	adbench -experiment all -frames 100000 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"adsim"
)

func main() {
	def := adsim.DefaultExperimentOptions()
	var (
		expID  = flag.String("experiment", "all", "experiment id (see -list) or 'all'")
		frames = flag.Int("frames", def.Frames, "simulated frames per configuration")
		seed   = flag.Int64("seed", def.Seed, "random seed")
		native = flag.Int("native-frames", def.NativeFrames, "natively executed frames for instrumentation experiments")
		list   = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("available experiments:")
		for _, id := range adsim.ExperimentIDs() {
			fmt.Printf("  %s\n", id)
		}
		return
	}

	opts := adsim.ExperimentOptions{Frames: *frames, Seed: *seed, NativeFrames: *native}

	ids := []string{*expID}
	if *expID == "all" {
		ids = adsim.ExperimentIDs()
	}
	for _, id := range ids {
		out, err := adsim.RunExperiment(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(strings.TrimRight(out, "\n"))
		fmt.Println()
	}
}
