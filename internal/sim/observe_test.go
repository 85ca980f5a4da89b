package sim

import (
	"testing"

	"heteropim/internal/hw"
)

// recordingCollector captures every callback for assertions.
type recordingCollector struct {
	starts, ends []Task
	samples      []struct {
		name string
		at   hw.Seconds
		v    float64
	}
	counts map[string]float64
}

func newRecordingCollector() *recordingCollector {
	return &recordingCollector{counts: map[string]float64{}}
}

func (c *recordingCollector) TaskStart(t Task) { c.starts = append(c.starts, t) }
func (c *recordingCollector) TaskEnd(t Task)   { c.ends = append(c.ends, t) }
func (c *recordingCollector) Sample(name string, at hw.Seconds, v float64) {
	c.samples = append(c.samples, struct {
		name string
		at   hw.Seconds
		v    float64
	}{name, at, v})
}
func (c *recordingCollector) Count(name string, delta float64) { c.counts[name] += delta }

// TestEmitWithoutCollector checks the emit helpers are no-ops (and do
// not panic) on the uninstrumented path.
func TestEmitWithoutCollector(t *testing.T) {
	e := New()
	if e.Observing() {
		t.Fatal("fresh engine must not be observing")
	}
	e.EmitTaskStart(Task{Track: "cpu"})
	e.EmitTaskEnd(Task{Track: "cpu"})
	e.EmitSample("queue.cpu", 1)
	e.EmitCount("sched.path.cpu", 1)
}

// TestEmitTimestamps checks emitted events carry the engine's simulated
// clock: start stamped at emit time, end at completion time.
func TestEmitTimestamps(t *testing.T) {
	e, h := newLogged()
	c := newRecordingCollector()
	e.SetCollector(c)
	if !e.Observing() {
		t.Fatal("Observing() false with a collector attached")
	}
	// Kind 1 opens a span and keeps its start on the object the
	// follow-up event names, the way the executor does; kind 2 closes it.
	var start hw.Seconds
	h.react = func(ev Ev) {
		switch ev.Kind {
		case 1:
			e.EmitTaskStart(Task{Track: "cpu", Name: "MatMul", Step: 2})
			e.EmitSample("queue.cpu", 3)
			start = e.Now()
			if err := e.AfterEv(0.5, Ev{Kind: 2}); err != nil {
				t.Error(err)
			}
		case 2:
			e.EmitTaskEnd(Task{Track: "cpu", Name: "MatMul", Step: 2, Start: start})
			e.EmitCount("sched.path.cpu", 1)
		}
	}
	if err := e.AtEv(1.5, Ev{Kind: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(c.starts) != 1 || c.starts[0].Start != 1.5 {
		t.Fatalf("starts = %+v, want one start at t=1.5", c.starts)
	}
	if len(c.ends) != 1 || c.ends[0].Start != 1.5 || c.ends[0].End != 2.0 {
		t.Fatalf("ends = %+v, want one span [1.5, 2.0]", c.ends)
	}
	if len(c.samples) != 1 || c.samples[0].at != 1.5 || c.samples[0].v != 3 {
		t.Fatalf("samples = %+v, want queue.cpu=3 at t=1.5", c.samples)
	}
	if c.counts["sched.path.cpu"] != 1 {
		t.Fatalf("counts = %v, want sched.path.cpu=1", c.counts)
	}
}
