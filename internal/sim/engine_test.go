package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"heteropim/internal/hw"
)

// logHandler records the clock and value of every dispatched event.
// When react is set it runs after each record, so a test can schedule
// from inside dispatch the way an executor does.
type logHandler struct {
	e     *Engine
	at    []hw.Seconds
	got   []Ev
	react func(ev Ev)
}

func (h *logHandler) HandleEvent(ev Ev) {
	h.at = append(h.at, h.e.Now())
	h.got = append(h.got, ev)
	if h.react != nil {
		h.react(ev)
	}
}

// newLogged returns a fresh engine with a logHandler attached.
func newLogged() (*Engine, *logHandler) {
	e := New()
	h := &logHandler{e: e}
	e.SetHandler(h)
	return e, h
}

// refs lists the Ref operands of the dispatched events in order.
func (h *logHandler) refs() []int32 {
	out := make([]int32, len(h.got))
	for i, ev := range h.got {
		out[i] = ev.Ref
	}
	return out
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e, h := newLogged()
	for _, at := range []float64{5, 1, 3, 2, 4} {
		if err := e.AtEv(at, Ev{Kind: 1, Ref: int32(at)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(h.at) {
		t.Fatalf("events out of order: %v", h.at)
	}
	for i, ev := range h.got {
		if float64(ev.Ref) != h.at[i] {
			t.Fatalf("event scheduled at %d ran at %g", ev.Ref, h.at[i])
		}
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %g, want 5", e.Now())
	}
	if e.Processed() != 5 {
		t.Fatalf("processed = %d", e.Processed())
	}
}

func TestTiesBreakBySequence(t *testing.T) {
	e, h := newLogged()
	for i := 0; i < 10; i++ {
		if err := e.AtEv(1.0, Ev{Kind: 1, Ref: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range h.refs() {
		if v != int32(i) {
			t.Fatalf("same-time events reordered: %v", h.refs())
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	e, h := newLogged()
	h.react = func(ev Ev) {
		if ev.Kind == 1 {
			if err := e.AfterEv(2, Ev{Kind: 2}); err != nil {
				t.Error(err)
			}
		}
	}
	if err := e.AfterEv(1, Ev{Kind: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.at) != 2 || h.at[0] != 1 || h.at[1] != 3 {
		t.Fatalf("trail = %v, want [1 3]", h.at)
	}
}

func TestRejectsPastAndBogusTimes(t *testing.T) {
	e, _ := newLogged()
	if err := e.AtEv(5, Ev{Kind: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.AtEv(1, Ev{Kind: 1}); err == nil {
		t.Error("scheduling in the past must error")
	}
	if err := e.AfterEv(-1, Ev{Kind: 1}); err == nil {
		t.Error("negative delay must error")
	}
	if err := e.AtEv(math.NaN(), Ev{Kind: 1}); err == nil {
		t.Error("NaN time must error")
	}
	if err := e.AtEv(math.Inf(1), Ev{Kind: 1}); err == nil {
		t.Error("infinite time must error")
	}
	if e.Pending() != 0 {
		t.Errorf("rejected events were queued: pending = %d", e.Pending())
	}
}

func TestEventBudgetStopsLoops(t *testing.T) {
	e, h := newLogged()
	e.MaxEvents = 100
	h.react = func(Ev) { _ = e.AfterEv(1, Ev{Kind: 1}) }
	_ = e.AfterEv(0, Ev{Kind: 1})
	if err := e.Run(); err == nil {
		t.Fatal("runaway schedule must be detected")
	}
	if e.Processed() != 100 {
		t.Fatalf("processed %d events before stopping, want the budget of 100", e.Processed())
	}
}

func TestPending(t *testing.T) {
	e, _ := newLogged()
	_ = e.AtEv(1, Ev{Kind: 1})
	_ = e.AtEv(2, Ev{Kind: 1})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d", e.Pending())
	}
	_ = e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending after run = %d", e.Pending())
	}
}

func TestClockMonotoneQuick(t *testing.T) {
	f := func(delays []uint16) bool {
		e, h := newLogged()
		for _, d := range delays {
			if err := e.AtEv(float64(d)/100, Ev{Kind: 1}); err != nil {
				return false
			}
		}
		if err := e.Run(); err != nil {
			return false
		}
		return len(h.at) == len(delays) && sort.Float64sAreSorted(h.at)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// tickHandler reschedules every event it dispatches, Ref+1 ns later,
// until left reaches 0. With several chains in flight (distinct Refs)
// the events interleave in the heap.
type tickHandler struct {
	e    *Engine
	left int
}

func (h *tickHandler) HandleEvent(ev Ev) {
	if h.left--; h.left > 0 {
		_ = h.e.AfterEv(float64(ev.Ref+1)*1e-9, ev)
	}
}

// BenchmarkEngineThroughput measures the DES core's own cost per event.
// Each iteration runs 100,000 events of three interleaved chains (a PIM
// run's heap mostly holds at most three keys), so the ns/event it
// reports is meaningful even at the 3x iteration count `make bench`
// uses.
func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	e.MaxEvents = math.MaxUint64
	h := &tickHandler{e: e}
	e.SetHandler(h)
	for i := 0; i < b.N; i++ {
		h.left = 100_000
		for c := int32(0); c < 3; c++ {
			if err := e.AfterEv(0, Ev{Kind: 1, Ref: c}); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Processed()), "ns/event")
}
