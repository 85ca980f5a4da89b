package runner

import (
	"context"
	"sync"
	"testing"
)

// The pool gauges must rise while work is in flight and return to zero
// once it drains.
func TestWorkerGaugesRiseAndFall(t *testing.T) {
	release := make(chan struct{})
	var peak int
	var mu sync.Mutex
	done := make(chan error, 1)
	go func() {
		_, err := Map(context.Background(), 4, 4, func(context.Context, int) (int, error) {
			mu.Lock()
			if b := BusyWorkers(); b > peak {
				peak = b
			}
			mu.Unlock()
			<-release
			return 0, nil
		})
		done <- err
	}()
	// All four cells block until released, so the gauge observed inside
	// the cells must reach the worker count.
	for i := 0; i < 4; i++ {
		release <- struct{}{}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := peak
	mu.Unlock()
	if got < 1 {
		t.Fatalf("busy-worker peak %d, want >= 1", got)
	}
	if b := BusyWorkers(); b != 0 {
		t.Errorf("workers still busy after Map returned: %d", b)
	}
}

func TestQueueDepthGauge(t *testing.T) {
	p := NewPool(1, 8)
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(func(context.Context) { close(started); <-block }); err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is now occupied
	for i := 0; i < 3; i++ {
		if err := p.Submit(func(context.Context) {}); err != nil {
			t.Fatal(err)
		}
	}
	if q := QueuedJobs(); q < 3 {
		t.Errorf("queued jobs %d with a blocked worker, want >= 3", q)
	}
	close(block)
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if q := QueuedJobs(); q != 0 {
		t.Errorf("queued jobs %d after drain, want 0", q)
	}
}
