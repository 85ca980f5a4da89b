package heteropim

import (
	"math/rand"
	"strings"
	"testing"

	"heteropim/internal/core"
	"heteropim/internal/nn"
)

func TestModelsAndConfigs(t *testing.T) {
	if len(Models()) != 5 {
		t.Fatalf("Models() = %d, want the 5 CNN workloads", len(Models()))
	}
	if len(AllModels()) != 7 {
		t.Fatalf("AllModels() = %d, want 7", len(AllModels()))
	}
	if len(Configs()) != 5 {
		t.Fatalf("Configs() = %d, want 5", len(Configs()))
	}
}

func TestRunPublicAPI(t *testing.T) {
	r, err := Run(ConfigHeteroPIM, AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	if r.StepTime <= 0 || r.Energy <= 0 || r.AvgPower <= 0 || r.EDP <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	sum := r.Breakdown.Operation + r.Breakdown.DataMovement + r.Breakdown.Sync
	if diff := sum - r.StepTime; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("breakdown sum %g != step %g", sum, r.StepTime)
	}
	if r.OffloadedOps == 0 {
		t.Fatal("hetero run offloaded nothing")
	}
	if _, err := Run(ConfigHeteroPIM, "NoSuchModel"); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestRunScaledFaster(t *testing.T) {
	r1, err := Simulate(BatchCell{Config: ConfigHeteroPIM, Model: AlexNet, FreqScale: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Simulate(BatchCell{Config: ConfigHeteroPIM, Model: AlexNet, FreqScale: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r4.StepTime >= r1.StepTime {
		t.Fatal("4x frequency must be faster")
	}
}

func TestRunVariantOrdering(t *testing.T) {
	base, err := Simulate(BatchCell{Model: AlexNet, Variant: &Variant{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Simulate(BatchCell{Model: AlexNet, Variant: &Variant{RecursiveKernels: true, OperationPipeline: true}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.StepTime >= base.StepTime {
		t.Fatal("RC+OP must beat the bare variant")
	}
	if full.FixedUtilization <= base.FixedUtilization {
		t.Fatal("RC+OP must raise utilization")
	}
}

func TestRunNeurocubeAndProcessors(t *testing.T) {
	nc, err := runNeurocube(AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	het, err := Run(ConfigHeteroPIM, AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	if nc.StepTime <= het.StepTime {
		t.Fatal("Neurocube must be slower than Hetero PIM")
	}
	p16, err := Simulate(BatchCell{Model: AlexNet, Processors: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p16.StepTime <= 0 {
		t.Fatal("16P run degenerate")
	}
	if _, err := Simulate(BatchCell{Model: AlexNet, Processors: -1}, nil); err == nil {
		t.Fatal("a negative processor count must error")
	}
}

func TestExperimentListComplete(t *testing.T) {
	exps := Experiments()
	want := []string{"T1", "F2", "F8", "F9", "F10", "F11", "F12", "F13", "F14", "F15", "F16", "F17"}
	if len(exps) != len(want) {
		t.Fatalf("%d experiments, want %d", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
		if exps[i].Title == "" || exps[i].Run == nil {
			t.Errorf("experiment %s incomplete", id)
		}
	}
}

func TestTableIExperiment(t *testing.T) {
	tab, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	// The profiling table must surface the paper's headline ops.
	for _, want := range []string{"Conv2DBackpropFilter", "Conv2DBackpropInput", "BiasAddGrad", "VGG-19", "AlexNet", "DCGAN"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
	// Three models x (5 top rows + 1 other row).
	if len(tab.Rows) != 18 {
		t.Errorf("Table I rows = %d, want 18", len(tab.Rows))
	}
	// Conv2DBackpropFilter leads VGG-19's CI list, as in the paper.
	if tab.Rows[0][2] != "Conv2DBackpropFilter" {
		t.Errorf("VGG-19 top CI op = %s, want Conv2DBackpropFilter", tab.Rows[0][2])
	}
}

func TestFig2Experiment(t *testing.T) {
	tab, err := Fig2Classes()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("Fig. 2 rows = %d", len(tab.Rows))
	}
}

// TestWarmTableIAndFig2BuildNothing: Table I and Fig. 2 read each
// model's cached per-type profile by its memoized digest, so a warm call
// builds no graph: it renders the cold call's table and allocates fewer
// times than building the smallest of its models does.
func TestWarmTableIAndFig2BuildNothing(t *testing.T) {
	build := testing.AllocsPerRun(3, func() {
		if _, err := nn.Build(nn.AlexNetName); err != nil {
			t.Fatal(err)
		}
	})
	for _, tc := range []struct {
		name string
		run  func() (*Table, error)
	}{{"Table I", TableI}, {"Fig. 2", Fig2Classes}} {
		ResetSimulationCache()
		core.ResetProfileCache()
		cold, err := tc.run()
		if err != nil {
			t.Fatal(err)
		}
		before := nn.Builds()
		warm, err := tc.run()
		if err != nil {
			t.Fatal(err)
		}
		if b := nn.Builds() - before; b != 0 {
			t.Errorf("%s: a warm call built %d graphs", tc.name, b)
		}
		if warm.String() != cold.String() {
			t.Errorf("%s: warm table differs from the cold one:\n%s\nwant\n%s", tc.name, warm, cold)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: a warm call allocates %.0f times, building AlexNet %.0f", tc.name, allocs, build)
		if allocs >= build {
			t.Errorf("%s: a warm call allocates %.0f times, no fewer than one AlexNet build (%.0f)", tc.name, allocs, build)
		}
	}
}

func TestFastFigureExperiments(t *testing.T) {
	// The quick per-figure runners (the expensive 5x5 matrices run in
	// the benchmark harness).
	for _, run := range []func() (*Table, error){Fig10Neurocube, Fig12ProgScaling} {
		tab, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			t.Fatal("empty experiment table")
		}
	}
}

func TestFunctionalAPITrainsRealMath(t *testing.T) {
	// The public tensor API must support a full forward/backward/update
	// cycle whose loss decreases.
	rng := rand.New(rand.NewSource(7))
	spec := ConvSpec{StrideH: 1, StrideW: 1, SamePadding: true}
	w := Randn(rng, 0.3, 3, 3, 1, 4)
	dense := Randn(rng, 0.2, 4*4*4, 2)
	ws := NewAdamState(w)
	ds := NewAdamState(dense)
	cfg := DefaultAdam()
	cfg.LR = 1e-2
	var first, last float64
	for step := 0; step < 40; step++ {
		x := Randn(rng, 0.1, 6, 4, 4, 1)
		labels := make([]int, 6)
		for i := range labels {
			labels[i] = i % 2
			if labels[i] == 1 {
				for j := 0; j < 16; j++ {
					x.Data[i*16+j] += 1
				}
			}
		}
		c, err := Conv2D(x, w, spec)
		if err != nil {
			t.Fatal(err)
		}
		r := Relu(c)
		flat, err := TensorFromSlice(r.Data, 6, 4*4*4)
		if err != nil {
			t.Fatal(err)
		}
		logits, err := MatMul(flat, dense)
		if err != nil {
			t.Fatal(err)
		}
		loss, dl, err := CrossEntropyWithSoftmax(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = loss
		}
		last = loss
		dDense, err := MatMulTransA(flat, dl)
		if err != nil {
			t.Fatal(err)
		}
		dFlat, err := MatMulTransB(dl, dense)
		if err != nil {
			t.Fatal(err)
		}
		dR, err := TensorFromSlice(dFlat.Data, 6, 4, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		dC, err := ReluGrad(c, dR)
		if err != nil {
			t.Fatal(err)
		}
		dW, err := Conv2DBackpropFilter(x, w.Shape, dC, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := ApplyAdam(w, dW, ws, cfg); err != nil {
			t.Fatal(err)
		}
		if err := ApplyAdam(dense, dDense, ds, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %g -> %g", first, last)
	}
}

func TestMixedWorkloadsAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed workloads are slow; run without -short")
	}
	results, err := RunMixedWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("%d mixed cases, want 6", len(results))
	}
	for _, r := range results {
		if r.Improvement <= 0.3 {
			t.Errorf("%s: improvement %.0f%%, want substantial", r.Case.Name(), r.Improvement*100)
		}
	}
}

func TestModelSummaries(t *testing.T) {
	tab, err := ModelSummaries()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("summary rows = %d, want 7 models", len(tab.Rows))
	}
	// VGG-19's famous 138M parameters (ours ~143M with conv biases).
	if tab.Rows[0][3] != "143.7M" {
		t.Errorf("VGG-19 params = %s", tab.Rows[0][3])
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep is slow; run without -short")
	}
	all := append(Experiments(), ExtensionExperiments()...)
	for _, e := range all {
		tab, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty table", e.ID)
		}
		if tab.Title == "" || len(tab.Columns) == 0 {
			t.Fatalf("%s: malformed table", e.ID)
		}
	}
}
