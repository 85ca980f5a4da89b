package runner

import "sync/atomic"

// Pool utilization gauges: how many workers are executing cells right
// now and how many accepted jobs are waiting for one. Each transition
// costs one atomic add, and nothing is pushed anywhere: a reader, such
// as the serving daemon's /metrics handler at scrape time, reads the
// counts when it reports them, so shard scheduling (e.g. the per-stack
// engines of a multi-stack run fanned out through Map) is observable
// alongside the simulation timelines.
//
// The counts aggregate across every Map call and Pool in the process —
// the package-level view matches how the process actually loads its
// CPUs, which is the question the gauges answer.

// Gauge names readers export the counts under.
const (
	// MetricWorkersBusy is the number of runner workers (Map worker
	// goroutines plus Pool workers executing a job) currently busy.
	MetricWorkersBusy = "runner.workers_busy"
	// MetricQueueDepth is the number of accepted Pool jobs waiting for
	// a worker.
	MetricQueueDepth = "runner.queue_depth"
)

var (
	busyWorkers atomic.Int64
	queuedJobs  atomic.Int64
)

// BusyWorkers reports the current busy-worker count.
func BusyWorkers() int { return int(busyWorkers.Load()) }

// QueuedJobs reports the current queued-job count across pools.
func QueuedJobs() int { return int(queuedJobs.Load()) }
