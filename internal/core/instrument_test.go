package core

import (
	"context"
	"reflect"
	"testing"

	"heteropim/internal/hw"
	"heteropim/internal/metrics"
	"heteropim/internal/nn"
	"heteropim/internal/runner"
)

// TestInstrumentedRunIdentical is the observability overhead contract:
// attaching a collector must not change ANY simulation outcome. Every
// platform configuration is run with and without a collector and the
// full Result structs must be deeply (bit-)identical.
func TestInstrumentedRunIdentical(t *testing.T) {
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range hw.AllConfigKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := hw.PaperConfigScaled(kind, 1)
			plain, err := RunOn(kind, g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := metrics.NewCollector()
			instrumented, err := RunOnWithCollector(kind, g, cfg, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, instrumented) {
				t.Fatalf("instrumented result differs from plain result:\n%+v\nvs\n%+v", plain, instrumented)
			}
			if len(c.Timeline().Spans) == 0 {
				t.Fatal("collector recorded no spans")
			}
		})
	}
}

// TestHeteroCollectorContent checks the Hetero PIM run populates the
// taxonomy the observability layer promises: spans on every device
// track, queue-depth and busy-unit gauges, scheduling counters.
func TestHeteroCollectorContent(t *testing.T) {
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	c := metrics.NewCollector()
	opts := HeteroOptions()
	opts.Collector = c
	if _, err := RunPIM(g, hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1), opts); err != nil {
		t.Fatal(err)
	}
	tl := c.Timeline()
	tracks := map[string]bool{}
	for _, s := range tl.Spans {
		tracks[s.Track] = true
		if s.End < s.Start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
		if s.Name == "" {
			t.Fatalf("unnamed span: %+v", s)
		}
	}
	// With RC every offloaded op's residual phases run on the
	// programmable PIM ("residual.prog"); whole-op prog placements only
	// appear when the fixed pool rejects a candidate, so they are not
	// required here.
	for _, want := range []string{"cpu", "fixed", "residual.prog"} {
		if !tracks[want] {
			t.Errorf("no spans on track %q (got %v)", want, tracks)
		}
	}
	for _, series := range []string{"queue.cpu", "fixed.busy_units", "pipeline.steps_in_flight"} {
		if len(tl.Series[series]) == 0 {
			t.Errorf("no samples in series %q", series)
		}
	}
	if c.CounterValue("sched.path.fixed") == 0 {
		t.Error("no fixed-path scheduling decisions counted")
	}
	if c.CounterValue("sched.candidates") == 0 || c.CounterValue("sched.ops") == 0 {
		t.Error("selection-rank counters missing")
	}
	if c.CounterValue("sim.events") == 0 {
		t.Error("engine event count missing")
	}
	snap := c.Snapshot()
	if snap.Makespan <= 0 {
		t.Fatal("snapshot has no makespan")
	}
	if a := metrics.Advise(snap); len(a.Lines) == 0 || a.Bottleneck == "" {
		t.Fatalf("advisor produced no reading: %+v", a)
	}
}

// TestSharedCollectorAcrossParallelRuns shares ONE collector between
// concurrent sweep cells — the supported sharing mode (the collector is
// internally synchronized even though each Options value is
// single-run). Two cells run on 2 and 4 stacks, so the link spans their
// all-reduces emit race the other cells' spans. Meaningful under -race.
func TestSharedCollectorAcrossParallelRuns(t *testing.T) {
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	shared := metrics.NewCollector()
	cells := []struct {
		stacks int
		sched  ReduceSchedule
	}{{1, ""}, {1, ""}, {1, ""}, {1, ""}, {2, ReduceRing}, {4, ReduceTree}}
	_, err = runner.Map(context.Background(), len(cells), len(cells),
		func(_ context.Context, i int) (Result, error) {
			opts := HeteroOptions() // fresh Options per run, shared collector
			opts.Collector = shared
			opts.Stacks, opts.AllReduce = cells[i].stacks, cells[i].sched
			return RunPIM(g, hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1), opts)
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := shared.CounterValue("sched.path.fixed"); got == 0 {
		t.Fatal("shared collector saw no fixed placements")
	}
	snap := shared.Snapshot()
	if len(snap.Tracks) == 0 {
		t.Fatal("shared collector derived no track stats")
	}
	wantLinks := 0
	for _, c := range cells {
		if c.stacks > 1 {
			phases, err := nn.AllReduceTemplate(c.sched, c.stacks)
			if err != nil {
				t.Fatal(err)
			}
			for _, ph := range phases {
				wantLinks += len(ph.Transfers)
			}
		}
	}
	links := 0
	for _, ts := range snap.Tracks {
		if ts.Track == "link" {
			links = ts.Spans
		}
	}
	if links != wantLinks {
		t.Errorf("shared collector holds %d link spans, want one per all-reduce transfer (%d)", links, wantLinks)
	}
}
