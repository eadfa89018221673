package testutil

import (
	"strings"
	"testing"
	"time"
)

// recorder captures Errorf calls without failing the real test.
type recorder struct {
	msgs []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, format)
	_ = args
}

func TestCheckGoroutinesPassesOnBalancedExit(t *testing.T) {
	check := CheckGoroutines(t)
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	check() // the spawned goroutine exits within the grace period
}

func TestCheckGoroutinesToleratesLateExit(t *testing.T) {
	check := CheckGoroutines(t)
	go time.Sleep(50 * time.Millisecond)
	check() // still running at check time, gone within the grace period
}

func TestCheckGoroutinesReportsLeak(t *testing.T) {
	quit := make(chan struct{})
	defer close(quit)

	var rec recorder
	// Snapshot AFTER deciding to leak would mask it; snapshot first.
	check := CheckGoroutinesWithGrace(&rec, 50*time.Millisecond)
	// Two leaks, both outliving the grace period: the previous test's runner
	// goroutine may still be exiting when the snapshot is taken, and one
	// leak would then only bring the count back up to the snapshot.
	for i := 0; i < 2; i++ {
		go func() { <-quit }()
	}
	check()
	if len(rec.msgs) != 1 || !strings.Contains(rec.msgs[0], "goroutine leak") {
		t.Fatalf("leak not reported: %q", rec.msgs)
	}
}
