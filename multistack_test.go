package heteropim

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"heteropim/internal/core"
	"heteropim/internal/nn"
)

func publicResultJSON(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A cell whose optional axes are at their defaults must reproduce Run
// byte for byte — the degenerate single-stack case routes through the
// unchanged executor.
func TestRunWithOptionsZeroValueIsRun(t *testing.T) {
	base, err := Run(ConfigHeteroPIM, AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []BatchCell{
		{Config: ConfigHeteroPIM, Model: AlexNet},
		{Config: ConfigHeteroPIM, Model: AlexNet, Stacks: 1},
		{Config: ConfigHeteroPIM, Model: AlexNet, FreqScale: 1},
	} {
		r, err := Simulate(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if publicResultJSON(t, base) != publicResultJSON(t, r) {
			t.Errorf("Simulate(%+v) diverged from Run", c)
		}
	}
}

func TestRunWithOptionsMultiStack(t *testing.T) {
	single, err := Run(ConfigHeteroPIM, VGG19)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := Simulate(BatchCell{Config: ConfigHeteroPIM, Model: VGG19, Stacks: 4, AllReduce: AllReduceRing}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Stacks != 4 || ring.AllReduce != AllReduceRing {
		t.Fatalf("labels: stacks=%d allreduce=%q", ring.Stacks, ring.AllReduce)
	}
	if !strings.HasSuffix(ring.Config, " x4") {
		t.Errorf("config %q lacks the x4 suffix", ring.Config)
	}
	if ring.StepTime != ring.StackStepTime+ring.AllReduceTime {
		t.Errorf("StepTime %g != StackStepTime %g + AllReduceTime %g",
			ring.StepTime, ring.StackStepTime, ring.AllReduceTime)
	}
	// Strong scaling: 4 stacks must beat 1 stack. Mild superlinearity is
	// possible (chunk-granule rounding favors the smaller shard batch),
	// so only guard against absurd scaling.
	if ring.StepTime >= single.StepTime {
		t.Errorf("4-stack step %g not faster than single-stack %g", ring.StepTime, single.StepTime)
	}
	if ring.StepTime < single.StepTime/8 {
		t.Errorf("4-stack step %g implausibly fast vs single-stack %g", ring.StepTime, single.StepTime)
	}
	// Ring moves the same bytes in more, smaller phases; with VGG-19's
	// large gradient it must synchronize faster than the tree.
	tree, err := Simulate(BatchCell{Config: ConfigHeteroPIM, Model: VGG19, Stacks: 4, AllReduce: AllReduceTree}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ring.AllReduceTime >= tree.AllReduceTime {
		t.Errorf("ring all-reduce %g not below tree %g for a large gradient",
			ring.AllReduceTime, tree.AllReduceTime)
	}
	// Energy accounts for all stacks: a 4-stack system burns more power
	// than one stack.
	if ring.AvgPower <= single.AvgPower {
		t.Errorf("4-stack power %g not above single-stack %g", ring.AvgPower, single.AvgPower)
	}
	if ring.StackMaxTemp <= 0 {
		t.Errorf("StackMaxTemp %g, want > 0", ring.StackMaxTemp)
	}
}

func TestRunWithOptionsRejects(t *testing.T) {
	if _, err := Simulate(BatchCell{Config: ConfigCPU, Model: AlexNet, Stacks: 2}, nil); err == nil {
		t.Error("CPU multi-stack run accepted, want an error")
	}
	if _, err := Simulate(BatchCell{Config: ConfigHeteroPIM, Model: AlexNet, Stacks: 2, AllReduce: "butterfly"}, nil); err == nil {
		t.Error("unknown all-reduce schedule accepted, want an error")
	}
}

// BatchCell.Stacks must match the direct Simulate path bit for bit,
// like every other cell axis.
func TestBatchRunMultiStackCells(t *testing.T) {
	cells := []BatchCell{
		{Config: ConfigHeteroPIM, Model: AlexNet},
		{Config: ConfigHeteroPIM, Model: AlexNet, Stacks: 2, AllReduce: AllReduceRing},
		{Config: ConfigFixedPIM, Model: AlexNet, Stacks: 2, AllReduce: AllReduceTree},
	}
	got, err := BatchRun(cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		want, err := Simulate(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if publicResultJSON(t, got[i]) != publicResultJSON(t, want) {
			t.Errorf("cell %d: batch result diverged from the direct run", i)
		}
	}
}

// TestMultiStackBuildsOneGraphPerShardBatch: a cold multi-stack cell
// reads its model, batch and parameter footprint from its source, so it
// builds no graph at the global batch beyond the one its digest needs,
// and its shards of one batch size share one source, so it builds one
// graph per distinct shard batch. The shards' result-cache lookups are
// unchanged: one miss per distinct shard batch, the other shards hits.
func TestMultiStackBuildsOneGraphPerShardBatch(t *testing.T) {
	memoryCacheOnly(t)
	for _, c := range []BatchCell{
		{Config: ConfigHeteroPIM, Model: AlexNet, Stacks: 2},
		{Config: ConfigHeteroPIM, Model: AlexNet, Stacks: 4},
		{Config: ConfigHeteroPIM, Model: VGG19, Stacks: 2},
		{Config: ConfigHeteroPIM, Model: VGG19, Stacks: 4},
		{Config: ConfigFixedPIM, Model: AlexNet, BatchSize: 10, Stacks: 3}, // shards 4, 3, 3
	} {
		batch := c.BatchSize
		if batch == 0 {
			batch = nn.DefaultBatch(c.Model)
		}
		shards, err := nn.ShardBatches(batch, c.Stacks)
		if err != nil {
			t.Fatal(err)
		}
		distinct := int64(len(slices.Compact(slices.Clone(shards))))
		for _, warmDigest := range []bool{false, true} {
			ResetSimulationCache()
			core.ResetProfileCache()
			// The global batch's graph is built only to hash it for the
			// cell's address, which a warm digest memo already holds.
			hashBuilds := int64(1)
			if warmDigest {
				if _, _, err := nn.ModelDigest(c.Model, batch); err != nil {
					t.Fatal(err)
				}
				hashBuilds = 0
			}
			before := nn.Builds()
			if _, err := Simulate(c, nil); err != nil {
				t.Fatal(err)
			}
			if b := nn.Builds() - before; b != hashBuilds+distinct {
				t.Errorf("%s on %d stacks (shards %v, warm digest %v): built %d graphs, want %d",
					c.Model, c.Stacks, shards, warmDigest, b, hashBuilds+distinct)
			}
			st := SimulationCacheStats()
			if st.Misses != 1+distinct || st.Hits != int64(c.Stacks)-distinct {
				t.Errorf("%s on %d stacks: cache stats %+v, want %d misses and %d hits",
					c.Model, c.Stacks, st, 1+distinct, int64(c.Stacks)-distinct)
			}
		}
	}
}
