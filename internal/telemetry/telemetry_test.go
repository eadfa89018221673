package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCollectorConcurrent folds spans and frames from several goroutines
// at once, as a pipelined executor's stage goroutines do; the totals must
// be exact, and under -race this is the Sink contract's safety half.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(256)
	stages := []string{"DET", "LOC", "TRA"}
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Span(Span{Stage: stages[i%len(stages)], Frame: i, Queue: time.Millisecond, Exec: 2 * time.Millisecond})
				c.FrameDone(FrameEnd{Frame: i, Wall: time.Millisecond, Err: i%10 == 0, Degraded: i%4 == 0})
			}
		}()
	}
	// Read while the writers run.
	for i := 0; i < 10; i++ {
		_ = c.Summarize()
		_ = c.SpanCount("DET")
	}
	wg.Wait()
	var spans int64
	for _, stage := range stages {
		spans += c.SpanCount(stage)
	}
	if spans != workers*perWorker {
		t.Errorf("span count = %d, want %d", spans, workers*perWorker)
	}
	if got, want := c.ExecSumMs("DET"), 2*float64(c.SpanCount("DET")); got != want {
		t.Errorf("DET exec sum = %v ms, want %v", got, want)
	}
	s := c.Summarize()
	if s.Frame.Frames != workers*perWorker || s.Frame.Errs != workers*perWorker/10 || s.Frame.Degraded != workers*perWorker/4 {
		t.Errorf("frame summary = %+v", s.Frame)
	}
	if len(s.Stages) != len(stages) {
		t.Errorf("%d stages summarized, want %d", len(s.Stages), len(stages))
	}
}

// TestAllocCollectorSpan: once a stage's windows are full, folding a span
// allocates nothing.
func TestAllocCollectorSpan(t *testing.T) {
	const capacity = 64
	c := NewCollector(capacity)
	span := Span{Stage: "DET", Queue: time.Millisecond, Exec: 4 * time.Millisecond}
	for i := 0; i < 2*capacity; i++ {
		c.Span(span)
	}
	if allocs := testing.AllocsPerRun(1000, func() { c.Span(span) }); allocs != 0 {
		t.Errorf("a warm Span allocates %v times, want 0", allocs)
	}
}

func TestCollectorAggregatesSpans(t *testing.T) {
	c := NewCollector(0)
	for i := 0; i < 10; i++ {
		c.Span(Span{Stage: "DET", Frame: i, Queue: time.Millisecond, Exec: 2 * time.Millisecond})
		c.Span(Span{Stage: "LOC", Frame: i, Exec: 3 * time.Millisecond})
		if i%2 == 0 {
			c.Span(Span{Stage: "DET/dnn", Frame: i, Exec: time.Millisecond})
		}
		c.FrameDone(FrameEnd{Frame: i, Wall: 5 * time.Millisecond, Err: i == 3})
	}
	if c.Frames() != 10 || c.FrameErrs() != 1 {
		t.Errorf("frames=%d errs=%d", c.Frames(), c.FrameErrs())
	}
	if got := c.SpanCount("DET"); got != 10 {
		t.Errorf("DET span count = %d", got)
	}
	if got := c.ExecSumMs("DET"); got != 20 {
		t.Errorf("DET exec sum = %v ms, want 20", got)
	}
	if got := c.ExecSumMs("DET/dnn"); got != 5 {
		t.Errorf("DET/dnn exec sum = %v ms, want 5", got)
	}
	s := c.Summarize()
	if len(s.Stages) != 3 {
		t.Fatalf("%d stages summarized, want 3", len(s.Stages))
	}
	// First-seen order, not alphabetical.
	if s.Stages[0].Stage != "DET" || s.Stages[1].Stage != "LOC" || s.Stages[2].Stage != "DET/dnn" {
		t.Errorf("stage order = %v %v %v", s.Stages[0].Stage, s.Stages[1].Stage, s.Stages[2].Stage)
	}
	if s.Stages[0].QueueMeanMs != 1 || s.Stages[0].ExecMeanMs != 2 {
		t.Errorf("DET summary = %+v", s.Stages[0])
	}
	if s.Frame.WallMeanMs != 5 || s.Frame.Frames != 10 || s.Frame.Errs != 1 {
		t.Errorf("frame summary = %+v", s.Frame)
	}
	if !strings.Contains(s.String(), "DET") {
		t.Error("table render missing stage")
	}
}

func TestCollectorJSONAndCSV(t *testing.T) {
	c := NewCollector(0)
	c.Span(Span{Stage: "DET", Exec: time.Millisecond})
	c.FrameDone(FrameEnd{Wall: 2 * time.Millisecond})

	var jb bytes.Buffer
	if err := c.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var round Summary
	if err := json.Unmarshal(jb.Bytes(), &round); err != nil {
		t.Fatalf("json export not parseable: %v", err)
	}
	if len(round.Stages) != 1 || round.Stages[0].Stage != "DET" {
		t.Errorf("json round trip = %+v", round)
	}

	var cb bytes.Buffer
	if err := c.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cb.String()), "\n")
	if len(lines) != 3 { // header + DET + frame
		t.Fatalf("csv has %d lines: %q", len(lines), cb.String())
	}
	if !strings.HasPrefix(lines[1], "DET,1,") {
		t.Errorf("csv stage row = %q", lines[1])
	}
}

func TestMulti(t *testing.T) {
	a, b := NewCollector(0), NewCollector(0)
	m := Multi(a, nil, b)
	m.Span(Span{Stage: "DET", Exec: time.Millisecond})
	m.FrameDone(FrameEnd{Wall: time.Millisecond})
	if a.SpanCount("DET") != 1 || b.SpanCount("DET") != 1 {
		t.Error("multi did not fan out spans")
	}
	if a.Frames() != 1 || b.Frames() != 1 {
		t.Error("multi did not fan out frame ends")
	}
	if _, ok := Multi(nil, nil).(Nop); !ok {
		t.Error("all-nil Multi should collapse to Nop")
	}
	if Multi(a) != Sink(a) {
		t.Error("single-sink Multi should unwrap")
	}
}

func TestNopIsSilent(t *testing.T) {
	var n Nop
	n.Span(Span{Stage: "DET"})
	n.FrameDone(FrameEnd{})
}
