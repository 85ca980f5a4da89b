package sim

import (
	"fmt"

	"heteropim/internal/hw"
)

// Typed events. An event is an 8-byte value carried inside its own
// heap key (engine.go), so scheduling one touches no allocator and no
// side storage at all.
//
// The event is deliberately minimal — a kind tag and one owner-defined
// reference — so internal/sim stays free of executor types. Each engine
// user defines its own EventKind values and implements Handler; the
// engine routes every event there. An event names the object it acts
// on by an index into its owner's own storage (Ref), and that object
// holds the event's operands (units held, work in flight, a span's
// start): an object with at most one pending event needs nothing more.
// The event holds no pointer, so no scheduling step writes a pointer
// the GC must track.

// EventKind discriminates events; its values are owner-defined.
type EventKind uint8

// Ev is one typed event: what happens (Kind) to which of its owner's
// objects (Ref).
type Ev struct {
	Kind EventKind
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

// SetHandler attaches the event dispatcher.
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// AtEv schedules an event at an absolute time, which must be finite and
// not in the past. It performs no allocation beyond (amortized) heap
// growth.
func (e *Engine) AtEv(t hw.Seconds, ev Ev) error {
	if err := e.checkTime(t); err != nil {
		return err
	}
	e.seq++
	e.events.push(key{at: t, seq: e.seq, ev: ev})
	return nil
}

// AfterEv schedules an event delay seconds from now.
func (e *Engine) AfterEv(delay hw.Seconds, ev Ev) error {
	if delay < 0 {
		return fmt.Errorf("sim: negative delay %.9g", delay)
	}
	return e.AtEv(e.now+delay, ev)
}
