package heteropim

import (
	"encoding/json"
	"strings"
	"testing"
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
