// Package sim is a small deterministic discrete-event simulation engine:
// an event heap ordered by (time, sequence), a clock, and run control.
// It is the substrate under the trace-driven executors in internal/core,
// playing the role of the paper's Python simulation framework
// (Section V-A).
package sim

import (
	"fmt"
	"math"

	"heteropim/internal/hw"
)

// key is one heap entry: a scheduled event's order key and the event
// itself. Keys hold no pointer, so moving them is a plain copy — no GC
// write barrier on the heap's sift path, and nothing for the collector
// to scan in the heap's storage.
type key struct {
	at  hw.Seconds
	seq uint64
	ev  Ev
}

// before is the heap order: time first, insertion sequence as the tie
// break, which is what makes same-time events run in schedule order.
func (k key) before(o key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// eventHeap is a typed 4-ary implicit heap of 24-byte keys, each
// carrying its 8-byte event, so there is no side storage to keep in
// step with the heap. A 4-ary layout halves the tree depth of the
// binary heap, trading slightly more sibling comparisons per level for
// fewer cache-missing levels — the right trade for the tens of
// thousands of events a steady-state run pushes.
// Children of node i live at 4i+1..4i+4; the parent of i is (i-1)/4.
//
// push and pop re-slice *h in place (`*h = append(*h, k)`,
// `*h = (*h)[:n]`), which the compiler lowers to a length store while
// the backing array has room: steady-state scheduling stores no slice
// header.
type eventHeap []key

// push inserts k, sifting it up to its heap position.
func (h *eventHeap) push(k key) {
	*h = append(*h, k)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.before(a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = k
}

// pop removes and returns the minimum key.
func (h *eventHeap) pop() key {
	a := *h
	top := a[0]
	n := len(a) - 1
	last := a[n]
	*h = (*h)[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			// Find the smallest of up to four children.
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if a[j].before(a[m]) {
					m = j
				}
			}
			if !a[m].before(last) {
				break
			}
			a[i] = a[m]
			i = m
		}
		a[i] = last
	}
	return top
}

// Engine is the simulation core. The zero value is NOT usable; call New.
type Engine struct {
	now    hw.Seconds
	seq    uint64
	events eventHeap
	// processed counts executed events (for runaway detection).
	processed uint64
	// MaxEvents guards against schedule loops; 0 means the default.
	MaxEvents uint64
	// obs receives instrumentation events when attached (observe.go);
	// nil on the uninstrumented fast path.
	obs Collector
	// handler dispatches every event; see event.go.
	handler Handler
}

// DefaultMaxEvents bounds a single Run; generous for every workload here.
const DefaultMaxEvents = 200_000_000

// New creates an engine at time zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() hw.Seconds { return e.now }

// Processed returns how many events have executed.
func (e *Engine) Processed() uint64 { return e.processed }

// checkTime validates a scheduling time: finite and not in the past.
func (e *Engine) checkTime(t hw.Seconds) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("sim: scheduling at non-finite time %v", t)
	}
	if t < e.now {
		return fmt.Errorf("sim: scheduling at %.9g, before now %.9g", t, e.now)
	}
	return nil
}

// drain is the execution loop behind Run and RunUntil: it executes
// events until the queue empties or the total processed count reaches
// stopAfter, returning an error if the event budget is exhausted (a
// scheduling loop).
func (e *Engine) drain(stopAfter uint64) error {
	max := e.MaxEvents
	if max == 0 {
		max = DefaultMaxEvents
	}
	for len(e.events) > 0 && e.processed < stopAfter {
		if e.processed >= max {
			return fmt.Errorf("sim: event budget (%d) exhausted at t=%.9g — scheduling loop?", max, e.now)
		}
		k := e.events.pop()
		e.now = k.at
		e.processed++
		if e.handler == nil {
			return fmt.Errorf("sim: event kind %d at t=%.9g with no handler attached", k.ev.Kind, e.now)
		}
		e.handler.HandleEvent(k.ev)
	}
	return nil
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }
