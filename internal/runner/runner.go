// Package runner is the parallel experiment-execution layer: a bounded,
// context-aware worker pool that fans independent simulation cells
// (model x configuration, model x frequency, ...) out across goroutines
// and reassembles their results in deterministic input order.
//
// Every cell must be an independent, pure computation: the pool never
// parallelizes WITHIN one discrete-event simulation (the engine's
// (time, seq) determinism is per-run), only ACROSS runs. Because each
// cell's result lands at its input index, a parallel sweep produces
// bit-identical tables to the sequential one.
package runner

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvWorkers is the environment variable that overrides the default
// worker count (0 or unset means GOMAXPROCS).
const EnvWorkers = "HETEROPIM_WORKERS"

// configured holds the SetWorkers override; 0 means "resolve from the
// environment or GOMAXPROCS".
var configured atomic.Int64

func init() {
	if v, err := strconv.Atoi(os.Getenv(EnvWorkers)); err == nil && v > 0 {
		configured.Store(int64(v))
	}
}

// SetWorkers fixes the default pool width for subsequent sweeps;
// n <= 0 restores the GOMAXPROCS default. It returns the previous
// setting so callers can restore it.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(configured.Swap(int64(n)))
}

// Workers resolves the default pool width: SetWorkers override first,
// then HETEROPIM_WORKERS, then GOMAXPROCS capped at NumCPU. The cap
// matters on constrained hosts (containers, CI runners) where
// GOMAXPROCS exceeds the physical cores: extra workers for CPU-bound
// simulation cells only add scheduler churn, which made small cells
// slower on a one-core host. An explicit SetWorkers/HETEROPIM_WORKERS
// setting is honored as given.
func Workers() int {
	if n := int(configured.Load()); n > 0 {
		return n
	}
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < n {
		n = c
	}
	return n
}

// Map runs fn(ctx, i) for i in [0, n) on at most `workers` goroutines
// (Workers() when workers <= 0) and returns the results in input order.
//
// The first error (by lowest index) cancels the pool: in-flight cells
// finish, unstarted cells are skipped, and that error is returned. A
// canceled ctx stops issue of new cells the same way. With one worker
// the cells run on the calling goroutine in input order — the
// sequential baseline the determinism tests compare against.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		busyWorkers.Add(1)
		defer busyWorkers.Add(-1)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			v, err := fn(ctx, i)
			if err != nil {
				return out, err
			}
			out[i] = v
		}
		return out, nil
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		errIdx   int
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// One busy-gauge transition per worker lifetime, not per
			// cell: Map workers exit as soon as the cells run out, so
			// the gauge tracks real occupancy without putting an
			// atomic add on the per-cell hot path.
			busyWorkers.Add(1)
			defer busyWorkers.Add(-1)
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(ctx, i)
				if err != nil {
					mu.Lock()
					if firstErr == nil || i < errIdx {
						firstErr, errIdx = err, i
					}
					mu.Unlock()
					cancel()
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return out, firstErr
	}
	if err := parent.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// ForEach is Map for side-effecting cells with no result value.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	_, err := Map(ctx, n, workers, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}
