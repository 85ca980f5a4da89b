package sim

import "testing"

func TestTypedEventsDispatchInOrder(t *testing.T) {
	e, h := newLogged()
	if err := e.AtEv(2, Ev{Kind: 3, Ref: 30}); err != nil {
		t.Fatal(err)
	}
	if err := e.AtEv(1, Ev{Kind: 2, Ref: 10}); err != nil {
		t.Fatal(err)
	}
	if err := e.AtEv(1, Ev{Kind: 2, Ref: 20}); err != nil { // same time: insertion order
		t.Fatal(err)
	}
	if err := e.AfterEv(1.5, Ev{Kind: 4, Ref: 15}); err != nil { // another kind, interleaved
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Ev{{Kind: 2, Ref: 10}, {Kind: 2, Ref: 20}, {Kind: 4, Ref: 15}, {Kind: 3, Ref: 30}}
	if len(h.got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(h.got), len(want))
	}
	for i, ev := range h.got {
		if ev != want[i] {
			t.Errorf("event %d: %+v, want %+v", i, ev, want[i])
		}
	}
}

func TestTypedEventWithoutHandlerErrors(t *testing.T) {
	e := New()
	if err := e.AtEv(1, Ev{Kind: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("typed event with no handler must error, not panic or vanish")
	}
}

func TestAtEvValidatesTime(t *testing.T) {
	e := New()
	if err := e.AtEv(-1, Ev{Kind: 1}); err == nil {
		t.Error("past time accepted")
	}
	if err := e.AfterEv(-0.5, Ev{Kind: 1}); err == nil {
		t.Error("negative delay accepted")
	}
}

// chainHandler reschedules n follow-up events, emulating a steady-state
// executor that schedules from within event dispatch.
type chainHandler struct {
	eng  *Engine
	left int
	ref  int32 // reference operand, checks Ref round-trips
}

func (h *chainHandler) HandleEvent(ev Ev) {
	if ev.Ref != h.ref {
		panic("event reference lost")
	}
	if h.left == 0 {
		return
	}
	h.left--
	if err := h.eng.AfterEv(1e-3, Ev{Kind: 1, Ref: h.ref}); err != nil {
		panic(err)
	}
}

// TestTypedEventSchedulingAllocsFree pins the tentpole property at the
// engine level: once the heap has grown, scheduling
// and dispatching typed events performs ZERO heap allocations — no
// closure, no boxing of the event.
func TestTypedEventSchedulingAllocsFree(t *testing.T) {
	e := New()
	const ref = 41
	run := func() {
		h := e.handler.(*chainHandler)
		h.left = 500
		if err := e.AtEv(e.Now()+1e-3, Ev{Kind: 1, Ref: ref}); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	e.SetHandler(&chainHandler{eng: e, ref: ref})
	run() // grow the heap
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("typed event scheduling allocates %.2f objects per 500-event run, want 0", allocs)
	}
}
