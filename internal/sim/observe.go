package sim

import "heteropim/internal/hw"

// Task describes one interval of device work for observability: a span
// on a named track of the per-device timeline. Track is the device lane
// ("cpu", "prog", "fixed", "residual.prog", ...), Name the operation,
// Kind the lifecycle phase ("op", "section", "residual").
type Task struct {
	Track string
	Name  string
	Kind  string
	Step  int
	Start hw.Seconds
	End   hw.Seconds
}

// Collector receives instrumentation callbacks from a simulation run.
// The engine invokes it synchronously from the run's own goroutine; a
// collector shared between concurrent runs (e.g. the cells of a
// parallel sweep) must itself be safe for concurrent use —
// metrics.Collector is.
//
// Collectors observe, never steer: attaching one must not change any
// simulation outcome (the determinism tests assert bit-identical
// results with and without a collector).
type Collector interface {
	// TaskStart fires when a task begins occupying its track; only
	// Start is set.
	TaskStart(t Task)
	// TaskEnd fires at completion with both Start and End set.
	TaskEnd(t Task)
	// Sample records an instantaneous gauge value (queue depth, busy
	// units, pipeline occupancy) at simulated time `at`.
	Sample(name string, at hw.Seconds, v float64)
	// Count accumulates a named counter (scheduling decisions,
	// CPU fallbacks, processed events).
	Count(name string, delta float64)
}

// SetCollector attaches (or, with nil, detaches) the run's collector.
func (e *Engine) SetCollector(c Collector) { e.obs = c }

// Observing reports whether a collector is attached. Executors use it
// to skip building event payloads entirely on the uninstrumented path,
// keeping the overhead of the hooks to one nil check.
func (e *Engine) Observing() bool { return e.obs != nil }

// EmitTaskStart emits a task-start event at the current simulated time.
func (e *Engine) EmitTaskStart(t Task) {
	if e.obs == nil {
		return
	}
	t.Start = e.now
	e.obs.TaskStart(t)
}

// EmitTaskEnd emits a task-end event ending at the current simulated
// time; the caller supplies the span's recorded start.
func (e *Engine) EmitTaskEnd(t Task) {
	if e.obs == nil {
		return
	}
	t.End = e.now
	e.obs.TaskEnd(t)
}

// EmitSample emits a gauge sample stamped with the current time.
func (e *Engine) EmitSample(name string, v float64) {
	if e.obs == nil {
		return
	}
	e.obs.Sample(name, e.now, v)
}

// EmitCount accumulates a counter.
func (e *Engine) EmitCount(name string, delta float64) {
	if e.obs == nil {
		return
	}
	e.obs.Count(name, delta)
}
