package sim

import (
	"fmt"
	"math"

	"heteropim/internal/hw"
)

// Engine checkpoint/restore: a Checkpoint freezes the engine's complete
// scheduling state — clock, sequence counter, processed-event count and
// the event heap's backing slab — so a run can be forked at an event
// boundary and replayed into one or more fresh engines. The delta
// simulation layer in internal/core uses this to share the
// configuration-independent prefix of a design-space candidate's event
// timeline across the whole candidate group.
//
// Event payloads are plain values plus one pointer operand, which
// Restore lets the caller remap into the fork's own state (see the
// remap parameter).
//
// Bit-identity contract: restoring a checkpoint into a fresh engine and
// draining it executes exactly the events, in exactly the order, at
// exactly the times the source engine would have executed had it kept
// running — the heap slab is copied verbatim (heap layout preserved)
// and the sequence counter continues from the snapshot, so later
// schedules tie-break identically. checkpoint_test.go pins this.

// Checkpoint is a frozen engine state. It is immutable once taken and
// safe to share: every Restore copies the slab into the target engine,
// so concurrent forks of one checkpoint never alias event storage.
type Checkpoint struct {
	now       hw.Seconds
	seq       uint64
	processed uint64
	maxEvents uint64
	events    []event
}

// Now returns the simulated time the checkpoint was taken at.
func (c Checkpoint) Now() hw.Seconds { return c.now }

// Processed returns how many events had executed at the checkpoint.
func (c Checkpoint) Processed() uint64 { return c.processed }

// Pending returns how many events were queued at the checkpoint.
func (c Checkpoint) Pending() int { return len(c.events) }

// Remap returns a copy of the checkpoint with fn applied to every
// pending payload. The capture side uses this to detach payload Ptr
// operands from the source run's state (e.g. rewrite task pointers to
// slab indices) before that state is torn down, so the checkpoint can
// outlive the run it was taken from.
func (c Checkpoint) Remap(fn func(Ev) Ev) Checkpoint {
	out := c
	out.events = make([]event, len(c.events))
	copy(out.events, c.events)
	for i := range out.events {
		out.events[i].ev = fn(out.events[i].ev)
	}
	return out
}

// Checkpoint snapshots the engine at the current event boundary. It
// must be called between events (never from inside a Handler whose
// event is still mutating state — the snapshot cannot see half-applied
// mutations, only the engine's own queue).
func (e *Engine) Checkpoint() Checkpoint {
	cp := Checkpoint{
		now:       e.now,
		seq:       e.seq,
		processed: e.processed,
		maxEvents: e.MaxEvents,
		events:    make([]event, len(e.events)),
	}
	copy(cp.events, e.events)
	return cp
}

// Restore loads a checkpoint into a fresh (new or Reset) engine. When
// remap is non-nil it is applied to every restored payload — the fork
// hook that rewrites Ptr operands from the source run's state into the
// fork's own (e.g. task-slab index translation). Restore never mutates
// the checkpoint, so one checkpoint may be restored concurrently into
// any number of engines.
func (e *Engine) Restore(cp Checkpoint, remap func(Ev) Ev) error {
	if e.now != 0 || e.seq != 0 || e.processed != 0 || len(e.events) != 0 {
		return fmt.Errorf("sim: Restore needs a fresh or Reset engine (now=%.9g, %d pending)",
			e.now, len(e.events))
	}
	e.now = cp.now
	e.seq = cp.seq
	e.processed = cp.processed
	e.MaxEvents = cp.maxEvents
	e.events = append(e.events[:0], cp.events...)
	if remap != nil {
		for i := range e.events {
			e.events[i].ev = remap(e.events[i].ev)
		}
	}
	return nil
}

// RunUntil executes events until the queue drains or the engine's
// total processed count (including events executed before a Restore)
// reaches stopAfter — the next event is then left PENDING, so the
// engine sits at a clean event boundary ready for Checkpoint. The
// event-budget guard applies exactly as in Run.
func (e *Engine) RunUntil(stopAfter uint64) error { return e.drain(stopAfter) }

// Run executes events until the queue drains. It returns an error if the
// event budget is exhausted (a scheduling loop).
func (e *Engine) Run() error { return e.drain(math.MaxUint64) }
