package sim

import (
	"fmt"

	"heteropim/internal/hw"
)

// Typed event payloads. An event is a small value struct carried
// inside the engine's own payload slab, so scheduling one touches no
// allocator at all.
//
// The payload is deliberately generic — a kind tag plus a handful of
// scalar operands and one owner-defined reference — so internal/sim
// stays free of executor types. Each engine user defines its own
// EventKind values and implements Handler; the engine routes every
// event there. The payload holds no pointer: an event names the object
// it acts on by an index into its owner's own storage (Ref), so no
// scheduling step writes a pointer the GC must track.

// EventKind discriminates events; its values are owner-defined.
type EventKind uint8

// Ev is one typed event payload. Field meaning is owner-defined per
// Kind; the struct is sized so the common cases (a task reference, a
// device index, a few work scalars, a recorded start time) fit without
// any side allocation.
type Ev struct {
	Kind EventKind
	// A is a small operand (e.g. a device index).
	A uint8
	// Flag is a boolean operand (e.g. before/after residual).
	Flag bool
	// N is an integer operand (e.g. slots or granted units).
	N int32
	// F1..F3 are scalar operands (e.g. chunk flops/bytes, a sync cost).
	F1, F2, F3 float64
	// Start is a recorded timestamp operand (e.g. a span's start).
	Start hw.Seconds
	// Ref names the object the event acts on, as an index into the
	// owner's storage (e.g. a task's slab index).
	Ref int32
}

// Handler dispatches events. The engine calls it synchronously
// from Run, in heap order, with the clock already advanced to the
// event's time.
type Handler interface {
	HandleEvent(ev Ev)
}

// SetHandler attaches the event dispatcher. Reset/Release detach
// it, so a pooled engine never leaks a handler into its next run.
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// AtEv schedules an event at an absolute time, which must be finite and
// not in the past. It performs no allocation beyond (amortized) heap
// and slab growth.
func (e *Engine) AtEv(t hw.Seconds, ev Ev) error {
	if err := e.checkTime(t); err != nil {
		return err
	}
	e.seq++
	e.events.push(key{at: t, seq: e.seq, slot: e.store(ev)})
	return nil
}

// AfterEv schedules an event delay seconds from now.
func (e *Engine) AfterEv(delay hw.Seconds, ev Ev) error {
	if delay < 0 {
		return fmt.Errorf("sim: negative delay %.9g", delay)
	}
	return e.AtEv(e.now+delay, ev)
}
