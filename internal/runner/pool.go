package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Map/ForEach fan a *known* batch of cells out and return; a serving
// daemon instead needs a pool that outlives any one request. Pool is
// that long-lived counterpart: a fixed number of workers draining a
// fixed-capacity queue, with explicit admission (Submit never blocks —
// a full queue is the caller's signal to shed load) and a graceful
// drain (stop admitting, finish everything already accepted).

// ErrQueueFull is returned by Submit when the admission queue is at
// capacity; callers shed load (HTTP 429) instead of blocking.
var ErrQueueFull = errors.New("runner: pool queue full")

// ErrPoolDraining is returned by Submit once Drain has begun.
var ErrPoolDraining = errors.New("runner: pool draining")

// Pool is a persistent bounded worker pool with a fixed-capacity
// admission queue. All methods are safe for concurrent use.
type Pool struct {
	queue    chan func(context.Context)
	capacity int
	workers  int
	depth    atomic.Int64
	running  atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// mu serializes Submit against Drain's close(queue): a send on a
	// closed channel would panic, so draining flips under the write
	// lock while submitters hold the read lock.
	mu       sync.RWMutex
	draining bool
}

// NewPool starts a pool of `workers` goroutines (Workers() when
// workers <= 0) behind a queue holding up to `capacity` pending jobs
// (capacity <= 0 defaults to 4x the worker count).
func NewPool(workers, capacity int) *Pool {
	if workers <= 0 {
		workers = Workers()
	}
	if capacity <= 0 {
		capacity = 4 * workers
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		queue:    make(chan func(context.Context), capacity),
		capacity: capacity,
		workers:  workers,
		ctx:      ctx,
		cancel:   cancel,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for job := range p.queue {
				p.depth.Add(-1)
				queuedJobs.Add(-1)
				p.running.Add(1)
				busyWorkers.Add(1)
				job(p.ctx)
				p.running.Add(-1)
				busyWorkers.Add(-1)
			}
		}()
	}
	return p
}

// Submit enqueues a job for execution, never blocking: a full queue
// returns ErrQueueFull, a draining pool ErrPoolDraining. The job
// receives the pool's context, which is canceled by Close.
func (p *Pool) Submit(job func(context.Context)) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.draining {
		return ErrPoolDraining
	}
	select {
	case p.queue <- job:
		p.depth.Add(1)
		queuedJobs.Add(1)
		return nil
	default:
		return ErrQueueFull
	}
}

// QueueDepth reports how many accepted jobs are waiting for a worker.
func (p *Pool) QueueDepth() int { return int(p.depth.Load()) }

// Running reports how many jobs are executing right now.
func (p *Pool) Running() int { return int(p.running.Load()) }

// Capacity reports the admission queue's size.
func (p *Pool) Capacity() int { return p.capacity }

// NumWorkers reports the pool width.
func (p *Pool) NumWorkers() int { return p.workers }

// Drain stops admission and waits until every accepted job (queued and
// in-flight) has finished, or ctx expires — in which case the workers
// keep finishing in the background and ctx.Err() is returned. Drain is
// idempotent; concurrent calls all wait.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	if !p.draining {
		p.draining = true
		close(p.queue)
	}
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels the pool context (signaling in-flight jobs to stop)
// and then drains. Jobs that ignore their context still run to
// completion before Close returns.
func (p *Pool) Close() {
	p.cancel()
	_ = p.Drain(context.Background())
}
