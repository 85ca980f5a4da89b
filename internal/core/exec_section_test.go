package core

import (
	"strings"
	"testing"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/sim"
)

// spanCollector records task spans and gauge samples for assertions on
// the fixed-pool section path.
type spanCollector struct {
	starts, ends []sim.Task
	samples      map[string][]float64
}

func newSpanCollector() *spanCollector {
	return &spanCollector{samples: map[string][]float64{}}
}

func (c *spanCollector) TaskStart(t sim.Task) { c.starts = append(c.starts, t) }
func (c *spanCollector) TaskEnd(t sim.Task)   { c.ends = append(c.ends, t) }
func (c *spanCollector) Sample(name string, _ hw.Seconds, v float64) {
	c.samples[name] = append(c.samples[name], v)
}
func (c *spanCollector) Count(string, float64) {}

// sectionGraph builds two independent, identical conv ops that are both
// offload candidates, so their section requests contend for the pool.
func sectionGraph() *nn.Graph {
	g := &nn.Graph{Model: "sections", BatchSize: 1, InputBytes: 1e5}
	g.AddOp(nn.Op{Name: "opA", Type: nn.OpConv2D,
		Muls: 2e9, Adds: 2e9, OtherFlops: 1e6, Bytes: 5e7, UnitGranule: 17})
	g.AddOp(nn.Op{Name: "opB", Type: nn.OpConv2D,
		Muls: 2e9, Adds: 2e9, OtherFlops: 1e6, Bytes: 5e7, UnitGranule: 17})
	return g
}

// TestSectionContentionFIFOAndOrdering drives two contending offloads
// through a pool holding exactly ONE granule of units and checks the
// section path edge cases end to end:
//
//   - zero granted units: the second requester must wait in the pending
//     queue (its first section cannot start before the holder's first
//     chunk ends);
//   - contention: granted units never exceed the pool total;
//   - residual ordering: the before-residual ends no later than the
//     op's first section starts, and the after-residual starts no
//     earlier than its last section ends.
func TestSectionContentionFIFOAndOrdering(t *testing.T) {
	g := sectionGraph()
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	cfg.FixedPIM = hw.PaperFixedPIM(17) // one granule for two requesters
	c := newSpanCollector()
	opts := Options{Steps: 1, Collector: c}
	if _, err := RunPIM(g, cfg, opts); err != nil {
		t.Fatal(err)
	}

	for _, v := range c.samples["fixed.busy_units"] {
		if v > 17 {
			t.Fatalf("pool over-granted: busy units sample %g > 17", v)
		}
	}

	type spanStats struct {
		sections                     int
		firstSecStart, lastSecEnd    hw.Seconds
		residualEnds, residualStarts []hw.Seconds
	}
	stats := map[string]*spanStats{"opA": {}, "opB": {}}
	for _, s := range c.ends {
		st, ok := stats[s.Name]
		if !ok {
			continue
		}
		switch s.Kind {
		case "section":
			if st.sections == 0 {
				st.firstSecStart = s.Start
			}
			st.sections++
			if s.End > st.lastSecEnd {
				st.lastSecEnd = s.End
			}
		case "residual":
			st.residualStarts = append(st.residualStarts, s.Start)
			st.residualEnds = append(st.residualEnds, s.End)
		}
	}
	for name, st := range stats {
		if st.sections == 0 {
			t.Fatalf("%s: no fixed sections recorded", name)
		}
		if len(st.residualEnds) != 2 {
			t.Fatalf("%s: %d residual halves, want 2", name, len(st.residualEnds))
		}
		if st.residualEnds[0] > st.firstSecStart {
			t.Errorf("%s: before-residual ends at %.9g, after first section start %.9g",
				name, st.residualEnds[0], st.firstSecStart)
		}
		if st.residualStarts[1] < st.lastSecEnd {
			t.Errorf("%s: after-residual starts at %.9g, before last section end %.9g",
				name, st.residualStarts[1], st.lastSecEnd)
		}
	}
	// FIFO hand-off: opA is dispatched first and takes the whole pool;
	// opB's request finds zero free granules and must queue until opA's
	// first chunk releases its units.
	if stats["opB"].firstSecStart < stats["opA"].firstSecStart+fixedTimeQuantum/2 {
		t.Errorf("opB's first section at %.9g did not wait for opA's chunk (opA start %.9g)",
			stats["opB"].firstSecStart, stats["opA"].firstSecStart)
	}
}

// newSectionExec builds an executor over the section graph through the
// same initialisation as a run (newExec), for direct unit tests of the
// request/pump path. Nothing is seeded: the tests drive requestSection
// with tasks of the run's own slab (sectionTask), since events name a
// task by its slab index.
func newSectionExec(t *testing.T, units int) *exec {
	t.Helper()
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	cfg.FixedPIM = hw.PaperFixedPIM(units)
	x, err := newExec(sectionGraph(), cfg, Options{Steps: 1}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// sectionTask readies step 0's task of op id for a section request.
func sectionTask(x *exec, id int) *task {
	t := &x.tasks[id]
	t.remFlops, t.remBytes = 1e9, 1e7
	return t
}

// TestRequestSectionZeroGrantQueues checks the zero-granted-units edge
// directly: a request against a fully busy pool joins the FIFO and is
// served, in order, by pumpFixedPending once units free up.
func TestRequestSectionZeroGrantQueues(t *testing.T) {
	x := newSectionExec(t, 34) // two granules of 17
	a := sectionTask(x, 0)
	b := sectionTask(x, 1)

	x.pool.Grant(34) // saturate the pool externally
	x.requestSection(a)
	x.requestSection(b)
	if got := len(x.fixedPending) - x.fixedHead; got != 2 {
		t.Fatalf("%d tasks pending, want 2 (zero-grant requests must queue)", got)
	}
	if x.pool.Busy() != 34 {
		t.Fatalf("busy=%d changed by zero-grant requests", x.pool.Busy())
	}

	// Free ONE granule: only the head of the queue may be served.
	if err := x.pool.Release(17); err != nil {
		t.Fatal(err)
	}
	x.pumpFixedPending()
	if got := len(x.fixedPending) - x.fixedHead; got != 1 {
		t.Fatalf("%d tasks pending after one-granule release, want 1", got)
	}
	if &x.tasks[x.fixedPending[x.fixedHead]] != b {
		t.Fatal("FIFO violated: task B served before task A")
	}
	if x.pool.Available() != 0 {
		t.Fatalf("%d units left idle with a waiter queued", x.pool.Available())
	}
	if x.err != nil {
		t.Fatal(x.err)
	}
}

// TestRequestSectionGranuleClampedToPool checks that an op whose granule
// exceeds the whole pool is clamped to the pool size instead of waiting
// forever.
func TestRequestSectionGranuleClampedToPool(t *testing.T) {
	x := newSectionExec(t, 8) // pool smaller than the op granule (17)
	a := sectionTask(x, 0)
	x.requestSection(a)
	if got := len(x.fixedPending) - x.fixedHead; got != 0 {
		t.Fatalf("request queued (%d pending) instead of running on the clamped granule", got)
	}
	if x.pool.Busy() != 8 {
		t.Fatalf("busy=%d, want the whole 8-unit pool granted", x.pool.Busy())
	}
	if x.err != nil {
		t.Fatal(x.err)
	}
}

// TestGranuleClampEndToEnd runs a whole simulation whose op granule
// exceeds the pool, which must still terminate with drained registers.
func TestGranuleClampEndToEnd(t *testing.T) {
	g := sectionGraph()
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	cfg.FixedPIM = hw.PaperFixedPIM(8)
	r, err := RunPIM(g, cfg, Options{Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.StepTime <= 0 {
		t.Fatal("non-positive step time")
	}
}

// TestUnknownEventKindFailsRun schedules an event of a kind the
// executor does not define into a PIM run. With the operands on the
// task, the kind is all that routes an event, so the run must fail
// naming it rather than drop the event.
func TestUnknownEventKindFailsRun(t *testing.T) {
	const bogus sim.EventKind = 200
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	x, err := newExec(sectionGraph(), cfg, Options{Steps: 1}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	x.seed()
	if err := x.eng.AtEv(0, sim.Ev{Kind: bogus, Ref: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := x.drainRun(); err == nil || !strings.Contains(err.Error(), "unknown kind 200") {
		t.Errorf("PIM run with an event of unknown kind: err = %v, want an unknown-kind error", err)
	}
}
