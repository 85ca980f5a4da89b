package sim

import (
	"fmt"
	"math"
	"slices"

	"heteropim/internal/hw"
)

// Engine checkpoint/restore: a Checkpoint freezes the engine's complete
// scheduling state — clock, sequence counter, processed-event count and
// every pending event — so a run can be forked at an event boundary and
// replayed into one or more fresh engines. The delta simulation layer
// in internal/core uses this to share the configuration-independent
// prefix of a design-space candidate's event timeline across the whole
// candidate group.
//
// Events are plain values whose Ref operands index the owner's storage,
// so a checkpoint outlives the run it was taken from and a fork resolves
// the same indices in its own state. The keys carry their events, so a
// checkpoint is the keys and nothing else.
//
// Bit-identity contract: restoring a checkpoint into a fresh engine and
// draining it executes exactly the events, in exactly the order, at
// exactly the times the source engine would have executed had it kept
// running — the heap is copied in layout order and the sequence counter
// continues from the snapshot, so later schedules tie-break
// identically. checkpoint_test.go pins this.

// Checkpoint is a frozen engine state. It is immutable once taken and
// safe to share: every Restore copies it into the target engine, so
// concurrent forks of one checkpoint never alias event storage.
type Checkpoint struct {
	now       hw.Seconds
	seq       uint64
	processed uint64
	maxEvents uint64
	// events is the heap in layout order.
	events []key
}

// Now returns the simulated time the checkpoint was taken at.
func (c Checkpoint) Now() hw.Seconds { return c.now }

// Processed returns how many events had executed at the checkpoint.
func (c Checkpoint) Processed() uint64 { return c.processed }

// Pending returns how many events were queued at the checkpoint.
func (c Checkpoint) Pending() int { return len(c.events) }

// Checkpoint snapshots the engine at the current event boundary. It
// must be called between events (never from inside a Handler whose
// event is still mutating state — the snapshot cannot see half-applied
// mutations, only the engine's own queue).
func (e *Engine) Checkpoint() Checkpoint {
	return Checkpoint{
		now:       e.now,
		seq:       e.seq,
		processed: e.processed,
		maxEvents: e.MaxEvents,
		events:    slices.Clone(e.events),
	}
}

// Restore loads a checkpoint into a fresh engine (New, nothing run).
// Restore never mutates the checkpoint, so one checkpoint may be
// restored concurrently into any number of engines.
func (e *Engine) Restore(cp Checkpoint) error {
	if e.now != 0 || e.seq != 0 || e.processed != 0 || len(e.events) != 0 {
		return fmt.Errorf("sim: Restore needs a fresh engine (now=%.9g, %d pending)",
			e.now, len(e.events))
	}
	e.now = cp.now
	e.seq = cp.seq
	e.processed = cp.processed
	e.MaxEvents = cp.maxEvents
	e.events = append(e.events[:0], cp.events...)
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
