package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// host is the provenance block every report carries: a number without the
// machine and the commit it was measured on does not count.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitRev     string `json:"git_rev"`
	GitDirty   bool   `json:"git_dirty"`
}

func hostInfo() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitRev:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.GitRev = s.Value
			case "vcs.modified":
				h.GitDirty = s.Value == "true"
			}
		}
	}
	if h.GitRev != "unknown" {
		return h
	}
	// `go run` does not stamp the binary; ask git, but only when the
	// benchmark sits in a work tree (the driver's checkout is not one).
	root := filepath.Dir(benchDir())
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return h
	}
	if rev, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.GitRev = strings.TrimSpace(string(rev))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			h.GitDirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return h
}

// pinCPUs fixes the protocol's core count. It refuses a host that cannot
// give the benchmark two real CPUs: GOMAXPROCS above NumCPU time-slices
// the "parallel" stages and the numbers stop meaning what their names say.
func pinCPUs() error {
	if n := runtime.NumCPU(); n < workers {
		return fmt.Errorf("bench: the protocol pins GOMAXPROCS to %d but this host has %d CPU(s)", workers, n)
	}
	runtime.GOMAXPROCS(workers)
	return nil
}

// benchDir locates the benchmark's own directory, so outputs land in
// bench/out whether the program is started from the repository root
// (run.sh) or from inside bench/ (go run -C bench .).
func benchDir() string {
	if data, err := os.ReadFile("go.mod"); err == nil && strings.HasPrefix(string(data), "module adsim/bench") {
		return "."
	}
	return "bench"
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("bench: parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("bench: /proc/self/status has no VmHWM line")
}
