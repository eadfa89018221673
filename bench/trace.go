package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"adsim"
)

// span is one recorded interval. The pipeline's telemetry.Span carries
// only durations, so the tracer stamps each one on receipt: end = now,
// start = end − Exec, and the work became ready Queue before start.
type span struct {
	Name    string
	Vehicle int
	Frame   int
	Start   int64 // ns since the tracer's epoch
	End     int64
	Queue   int64
	Timed   bool // the frame was delivered inside the timed window
	Parent  int  // index into the trace, -1 for a frame's root span
}

// frameSpanName is the root span of a frame: admission → in-order delivery.
const frameSpanName = "frame"

// tracer is the bench-owned telemetry.Sink of the traced pass. It keeps
// every span in memory and is written out when the benchmark ends. It sees
// the program only from outside: stage spans arrive through
// Config.Telemetry, frame spans from the delivered results.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	vehicles int
	spans    []span
	// gids maps a stage goroutine to its vehicle. telemetry.Span has no
	// vehicle field and a fleet hands every vehicle the same sink, so the
	// stage-start hook (which IS per vehicle) teaches the tracer which
	// goroutine serves which stream; solo runs skip all of it.
	gids  map[uint64]int
	known map[stageKey]bool
}

type stageKey struct {
	vehicle int
	stage   string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin resets the tracer for one repetition.
func (t *tracer) begin(vehicles int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.vehicles = vehicles
	t.spans = t.spans[:0]
	t.gids = map[uint64]int{}
	t.known = map[stageKey]bool{}
}

// goid returns the calling goroutine's id, parsed from the first line of
// its stack header ("goroutine 123 [running]:"). The runtime offers no
// cheaper public route; the tracer only pays it on fleet runs.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// stageStart is the stageHook: on a fleet it records, once per (vehicle,
// stage), which goroutine runs that stage.
func (t *tracer) stageStart(vehicle int, stage string, frame int) {
	key := stageKey{vehicle, stage}
	t.mu.Lock()
	seen := t.known[key]
	t.mu.Unlock()
	if seen {
		return
	}
	id := goid()
	t.mu.Lock()
	t.gids[id] = vehicle
	t.known[key] = true
	t.mu.Unlock()
}

// Span implements telemetry.Sink.
func (t *tracer) Span(s adsim.TelemetrySpan) {
	end := int64(time.Since(t.epoch))
	var id uint64
	if t.vehicles > 1 {
		id = goid()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: s.Stage, Vehicle: t.gids[id], Frame: s.Frame,
		Start: end - int64(s.Exec), End: end, Queue: int64(s.Queue), Parent: -1,
	})
	t.mu.Unlock()
}

// FrameDone implements telemetry.Sink. The frame's root span is recorded
// from the delivered result instead (frameDelivered), which knows the
// vehicle.
func (t *tracer) FrameDone(adsim.TelemetryFrameEnd) {}

// frameDelivered records a frame's root span: admission → delivery.
func (t *tracer) frameDelivered(vehicle, frame int, wall time.Duration, timed bool) {
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: frameSpanName, Vehicle: vehicle, Frame: frame,
		Start: end - int64(wall), End: end, Timed: timed, Parent: -1,
	})
	t.mu.Unlock()
}

// trace is a finished span tree.
type trace struct {
	spans    []span
	children [][]int
}

// finish links the recorded spans into one tree per frame — stage spans
// under their frame's root, "STAGE/kernel" sub-spans under "STAGE" — and
// returns it. Spans whose parent never arrived stay roots.
func (t *tracer) finish() *trace {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	return linkSpans(spans)
}

type spanKey struct {
	name           string
	vehicle, frame int
}

func linkSpans(spans []span) *trace {
	index := make(map[spanKey]int, len(spans))
	for i, s := range spans {
		index[spanKey{s.Name, s.Vehicle, s.Frame}] = i
	}
	tr := &trace{spans: spans, children: make([][]int, len(spans))}
	for i := range spans {
		s := &spans[i]
		parent := frameSpanName
		if s.Name == frameSpanName {
			continue
		}
		if stage, _, ok := strings.Cut(s.Name, "/"); ok {
			parent = stage
		}
		if p, ok := index[spanKey{parent, s.Vehicle, s.Frame}]; ok {
			s.Parent = p
			tr.children[p] = append(tr.children[p], i)
		}
	}
	// A frame's timed flag is known only at its root; push it down.
	for i := range spans {
		for p := spans[i].Parent; p >= 0; p = spans[p].Parent {
			if spans[p].Name == frameSpanName {
				spans[i].Timed = spans[p].Timed
			}
		}
	}
	return tr
}

// selfNs is a span's self time: its duration minus the part of that
// interval its child spans cover. Children are clipped to the parent and
// overlapping children (the tracker pool's summed sub-spans) are counted
// once, so self time is never negative.
func (tr *trace) selfNs(i int) int64 {
	s := tr.spans[i]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range tr.children[i] {
		a, b := max(tr.spans[c].Start, s.Start), min(tr.spans[c].End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	covered, edge := int64(0), s.Start
	for _, v := range ivs {
		if v.b <= edge {
			continue
		}
		covered += v.b - max(v.a, edge)
		edge = v.b
	}
	return (s.End - s.Start) - covered
}

// traceLine is one line of <workload>.trace.jsonl.
type traceLine struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Vehicle int    `json:"vehicle"`
	Frame   int    `json:"frame"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	QueueNs int64  `json:"queue_ns"`
	Parent  *int   `json:"parent"` // null for a frame's root span
	Timed   bool   `json:"timed"`
}

// write stores the trace as JSON Lines, one span per line.
func (tr *trace) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range tr.spans {
		line := traceLine{
			ID: i, Name: s.Name, Vehicle: s.Vehicle, Frame: s.Frame,
			StartNs: s.Start, EndNs: s.End, QueueNs: s.Queue, Timed: s.Timed,
		}
		if s.Parent >= 0 {
			p := s.Parent
			line.Parent = &p
		}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
