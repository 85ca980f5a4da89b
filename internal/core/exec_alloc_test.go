package core

import (
	"fmt"
	"math"
	"testing"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/sim"
)

// countingCollector records only counters (used here to read the
// "sim.events" count a run emits).
type countingCollector struct{ counts map[string]float64 }

func (c *countingCollector) TaskStart(sim.Task)                 {}
func (c *countingCollector) TaskEnd(sim.Task)                   {}
func (c *countingCollector) Sample(string, hw.Seconds, float64) {}
func (c *countingCollector) Count(name string, delta float64)   { c.counts[name] += delta }

// TestSteadyStateZeroAllocsPerEvent pins the tentpole property of the
// typed-event conversion end to end: in steady state the simulator
// schedules and dispatches events without per-event heap allocations.
//
// Direct AllocsPerRun on a whole run would count per-run setup (system
// model, placement, pool, registers, task graph, engine), so the test
// measures the MARGINAL allocations between a 4-step and a 12-step run
// of the same cell: the setup is identical and cancels, leaving only
// what the extra eight steps of event traffic allocated. That marginal cost, divided by the
// marginal event count, must be ~0 (the closure-based engine paid one
// closure — and before PR 3 one boxing — per event).
func TestSteadyStateZeroAllocsPerEvent(t *testing.T) {
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	prev := EnableResultCache(false)
	defer EnableResultCache(prev)

	optsFor := func(steps int) Options {
		o := HeteroOptions()
		o.Steps = steps
		return o
	}
	events := func(steps int) float64 {
		c := &countingCollector{counts: map[string]float64{}}
		o := optsFor(steps)
		o.Collector = c
		if _, err := RunPIM(g, cfg, o); err != nil {
			t.Fatal(err)
		}
		return c.counts["sim.events"]
	}
	// Warm the profile cache before measuring; everything else a run
	// allocates, it allocates afresh.
	for _, s := range []int{4, 12} {
		if _, err := RunPIM(g, cfg, optsFor(s)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(steps int) float64 {
		o := optsFor(steps)
		return testing.AllocsPerRun(20, func() {
			if _, err := RunPIM(g, cfg, o); err != nil {
				t.Fatal(err)
			}
		})
	}
	e4, e12 := events(4), events(12)
	if e12-e4 < 500 {
		t.Fatalf("marginal events %g too small to measure (e4=%g e12=%g)", e12-e4, e4, e12)
	}
	a4, a12 := allocs(4), allocs(12)
	perEvent := (a12 - a4) / (e12 - e4)
	t.Logf("allocs: steps=4 %.1f, steps=12 %.1f; events: %g vs %g; marginal %.4f allocs/event",
		a4, a12, e4, e12, perEvent)
	// Zero with headroom for setup that grows with the step count (about
	// one allocation per step); a single closure per event would read
	// ~1.0 here.
	if perEvent > 0.01 {
		t.Fatalf("steady state allocates %.4f objects/event, want 0", perEvent)
	}
}

// setupCells are the cells TestRunSetupAllocs and BenchmarkRunSetup
// assemble: three models of very different op and edge counts, on
// Hetero PIM (candidate selection, OP on) and on Fixed PIM (every op a
// candidate, OP off, so the cross-step edges are wired).
func setupCells() []struct {
	platform hw.ConfigKind
	opts     Options
} {
	fixed, _ := PIMOptionsFor(hw.ConfigFixedPIM)
	return []struct {
		platform hw.ConfigKind
		opts     Options
	}{
		{hw.ConfigHeteroPIM, HeteroOptions().withDefaults()},
		{hw.ConfigFixedPIM, fixed.withDefaults()},
	}
}

// setupModels are the models of the set-up test and benchmark.
var setupModels = []nn.ModelName{nn.VGG19Name, nn.ResNet50Name, nn.InceptionV3Name}

// TestRunSetupAllocs pins what a run's set-up allocates: newExec
// allocates its task slab, its consumer lists and its per-op tables
// once each, and reads the candidate set its profile-cache entry holds,
// so its allocation count does not grow with a model's ops, edges or
// steps. The three models have 200 (VGG-19) to 817 (Inception-v3) ops;
// their counts may differ by a small constant only.
func TestRunSetupAllocs(t *testing.T) {
	for _, c := range setupCells() {
		cfg := hw.PaperConfigScaled(c.platform, 1)
		counts := map[string]float64{}
		for _, name := range setupModels {
			g, err := nn.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, steps := range []int{4, 12} {
				opts := c.opts
				opts.Steps = steps
				// The first call fills the profile cache; set-up reads it.
				if _, err := newExec(g, cfg, opts); err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%d ops/%d steps", name, len(g.Ops), steps)
				counts[key] = testing.AllocsPerRun(20, func() {
					if _, err := newExec(g, cfg, opts); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, n := range counts {
			lo, hi = min(lo, n), max(hi, n)
		}
		t.Logf("%v set-up allocations: %v", c.platform, counts)
		if hi-lo > 2 {
			t.Errorf("%v: set-up allocations range over %g..%g across models and step counts, want a spread of at most 2: %v",
				c.platform, lo, hi, counts)
		}
	}
}
