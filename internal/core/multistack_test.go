package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/runner"
	"heteropim/internal/sim"
)

// multiGraph builds a small named-model graph; multi-stack runs rebuild
// shard graphs from the model name, so hand-made toy graphs don't
// qualify.
func multiGraph(t *testing.T, batch int) *nn.Graph {
	t.Helper()
	g, err := nn.BuildWithBatch(nn.AlexNetName, batch)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func heteroMultiOpts(stacks int, sched ReduceSchedule) Options {
	opts := HeteroOptions()
	opts.Stacks, opts.AllReduce = stacks, sched
	return opts
}

func TestRunMultiSingleStackIsRunOn(t *testing.T) {
	g := multiGraph(t, 8)
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	base, err := RunOn(hw.ConfigHeteroPIM, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	one, err := RunMulti(hw.ConfigHeteroPIM, g, cfg, 1, ReduceRing)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, base) != resultJSON(t, one) {
		t.Error("RunMulti with one stack diverged from RunOn")
	}
}

func TestRunMultiRejectsSerialPlatforms(t *testing.T) {
	g := multiGraph(t, 8)
	for _, kind := range []hw.ConfigKind{hw.ConfigCPU, hw.ConfigGPU} {
		_, err := RunMulti(kind, g, hw.PaperConfigScaled(kind, 1), 2, ReduceRing)
		if err == nil || !strings.Contains(err.Error(), "PIM platform") {
			t.Errorf("%v: want a PIM-platform error, got %v", kind, err)
		}
	}
}

func TestMultiStackMergeRules(t *testing.T) {
	g := multiGraph(t, 10)
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	r, err := RunPIM(g, cfg, heteroMultiOpts(2, ReduceRing))
	if err != nil {
		t.Fatal(err)
	}
	if r.Stacks != 2 || r.AllReduce != string(ReduceRing) {
		t.Fatalf("merged result labels: stacks=%d allreduce=%q", r.Stacks, r.AllReduce)
	}
	if !strings.HasSuffix(r.Config.Name, " x2") {
		t.Errorf("config name %q lacks the x2 suffix", r.Config.Name)
	}
	if r.AllReduceTime <= 0 || r.StackStepTime <= 0 {
		t.Fatalf("non-positive split: stack=%g ar=%g", r.StackStepTime, r.AllReduceTime)
	}
	if got := r.StackStepTime + r.AllReduceTime; got != r.StepTime {
		t.Errorf("StepTime %g != StackStepTime+AllReduceTime %g", r.StepTime, got)
	}
	if d := math.Abs(float64(r.Breakdown.Total() - r.StepTime)); d > 1e-9*float64(r.StepTime) {
		t.Errorf("breakdown %g != step time %g", r.Breakdown.Total(), r.StepTime)
	}
	ar, bytes, err := AllReduceStepTime(ReduceRing, 2, g.ParamBytes, cfg.Link)
	if err != nil {
		t.Fatal(err)
	}
	if r.AllReduceTime != ar {
		t.Errorf("merged AllReduceTime %g != analytic %g", r.AllReduceTime, ar)
	}
	if r.Usage.InterStackBytes != bytes {
		t.Errorf("InterStackBytes %g != analytic %g", r.Usage.InterStackBytes, bytes)
	}
	if r.StackMaxTemp <= 0 {
		t.Errorf("StackMaxTemp %g, want > 0 for a fixed-pool platform", r.StackMaxTemp)
	}
	// The slowest shard paces the step: it must be at least as slow as
	// every shard run individually.
	shards, err := nn.ShardBatches(g.BatchSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range shards {
		sg := multiGraph(t, b)
		sr, err := RunPIM(sg, cfg, HeteroOptions())
		if err != nil {
			t.Fatal(err)
		}
		if sr.StepTime > r.StackStepTime {
			t.Errorf("shard batch %d step %g exceeds merged StackStepTime %g", b, sr.StepTime, r.StackStepTime)
		}
	}
}

func TestMultiStackRejectsModifiedGraphs(t *testing.T) {
	g := multiGraph(t, 8)
	g.Ops[0].Muls *= 2 // no longer the named model
	_, err := RunPIM(g, hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1), heteroMultiOpts(2, ReduceRing))
	if err == nil || !strings.Contains(err.Error(), "differs from the named model") {
		t.Errorf("want a modified-graph error, got %v", err)
	}
}

func TestMultiStackRejectsTinyBatches(t *testing.T) {
	g := multiGraph(t, 2)
	_, err := RunPIM(g, hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1), heteroMultiOpts(4, ReduceRing))
	if err == nil {
		t.Error("want an error for batch 2 across 4 stacks")
	}
}

// The merged bytes must not depend on the pool width or on shard
// completion order. Unequal shard batches (10 across 3 stacks -> 4,3,3)
// make the shards genuinely different simulations.
func TestMultiStackDeterministicAcrossWorkers(t *testing.T) {
	g := multiGraph(t, 10)
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	var ref string
	for _, w := range []int{1, 4, 8} {
		prev := runner.SetWorkers(w)
		for rep := 0; rep < 3; rep++ { // repeats reshuffle completion order
			ResetResultCache()
			r, err := RunPIM(g, cfg, heteroMultiOpts(3, ReduceTree))
			if err != nil {
				runner.SetWorkers(prev)
				t.Fatal(err)
			}
			got := resultJSON(t, r)
			if ref == "" {
				ref = got
			} else if got != ref {
				runner.SetWorkers(prev)
				t.Fatalf("workers=%d rep=%d: merged result diverged", w, rep)
			}
		}
		runner.SetWorkers(prev)
	}
}

// Every all-reduce transfer of an instrumented run is a "link" span
// that lasts its phase: allReduceStep's phase loop opens it when the
// phase starts and closes it when the phase ends, so the link track
// carries the synchronization time instead of zero-length markers.
func TestAllReduceLinkSpansLastTheirPhase(t *testing.T) {
	g := multiGraph(t, 8)
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	for _, sched := range []ReduceSchedule{ReduceRing, ReduceTree} {
		for _, m := range []int{2, 4} {
			c := newSpanCollector()
			opts := heteroMultiOpts(m, sched)
			opts.Collector = c
			r, err := RunPIM(g, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			phases, err := nn.AllReduceTemplate(sched, m)
			if err != nil {
				t.Fatal(err)
			}
			type want struct {
				name string
				dur  hw.Seconds
			}
			var wants []want
			for _, ph := range phases {
				for _, tr := range ph.Transfers {
					wants = append(wants, want{fmt.Sprintf("allreduce %d->%d", tr[0], tr[1]),
						phaseDuration(ph.Frac, g.ParamBytes, cfg.Link)})
				}
			}
			var links []sim.Task
			for _, s := range c.ends {
				if s.Track == "link" {
					links = append(links, s)
				}
			}
			if len(links) != len(wants) {
				t.Fatalf("%s m=%d: %d link spans, want one per transfer (%d)", sched, m, len(links), len(wants))
			}
			var busy hw.Seconds
			for i, s := range links {
				if s.Name != wants[i].name || s.End != s.Start+wants[i].dur {
					t.Errorf("%s m=%d span %d: %s [%g, %g], want %s lasting its phase (%g)",
						sched, m, i, s.Name, s.Start, s.End, wants[i].name, wants[i].dur)
				}
				busy += s.End - s.Start
			}
			if busy <= 0 {
				t.Errorf("%s m=%d: link track busy %g, want > 0", sched, m, busy)
			}
			if last := links[len(links)-1].End; last != r.AllReduceTime {
				t.Errorf("%s m=%d: last link span ends at %g, all-reduce takes %g", sched, m, last, r.AllReduceTime)
			}
		}
	}
}

// Satellite 1: the result-cache fingerprint must discriminate stack
// count, all-reduce schedule and link parameters — an M=1 and an M=2
// run may never collide.
func TestFingerprintDiscriminatesMultiStack(t *testing.T) {
	g := multiGraph(t, 8)
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	base := HeteroOptions()
	fps := map[Fingerprint]string{}
	add := func(label string, cfg hw.SystemConfig, opts Options) {
		fp := fingerprintRun(tagPIM, g, cfg, opts, nil)
		if prev, dup := fps[fp]; dup {
			t.Errorf("fingerprint collision: %s vs %s", label, prev)
		}
		fps[fp] = label
	}
	add("m1", cfg, base)
	add("m2-ring", cfg, heteroMultiOpts(2, ReduceRing))
	add("m2-tree", cfg, heteroMultiOpts(2, ReduceTree))
	add("m4-ring", cfg, heteroMultiOpts(4, ReduceRing))
	slow := cfg
	slow.Link.Bandwidth /= 2
	add("m2-ring-slowlink", slow, heteroMultiOpts(2, ReduceRing))
	lat := cfg
	lat.Link.Latency *= 2
	add("m2-ring-latlink", lat, heteroMultiOpts(2, ReduceRing))
}

// Multi-stack runs land in the result cache like any other: the second
// identical call must be a hit with byte-identical bytes.
func TestMultiStackResultsAreCached(t *testing.T) {
	g := multiGraph(t, 8)
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	ResetResultCache()
	cold, err := RunPIM(g, cfg, heteroMultiOpts(2, ReduceRing))
	if err != nil {
		t.Fatal(err)
	}
	before := ResultCacheStats()
	warm, err := RunPIM(g, cfg, heteroMultiOpts(2, ReduceRing))
	if err != nil {
		t.Fatal(err)
	}
	after := ResultCacheStats()
	if after.Hits != before.Hits+1 {
		t.Errorf("second multi-stack run was not a cache hit: %+v -> %+v", before, after)
	}
	if resultJSON(t, cold) != resultJSON(t, warm) {
		t.Error("cache hit bytes differ from the cold run")
	}
}
