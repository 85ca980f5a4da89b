package heteropim

import "testing"

func TestExtensionExperimentsList(t *testing.T) {
	exps := ExtensionExperiments()
	if len(exps) != 3 || exps[0].ID != "E1" || exps[1].ID != "E2" || exps[2].ID != "E3" {
		t.Fatalf("unexpected extension list: %+v", exps)
	}
}

func TestGPUHostHetero(t *testing.T) {
	cpuHost, err := Run(ConfigHeteroPIM, AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	gpuHost, err := runGPUHostHetero(AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	if gpuHost.StepTime <= 0 {
		t.Fatal("degenerate GPU-host run")
	}
	// The PIMs do the bulk either way: the host swap moves step time
	// only modestly.
	ratio := gpuHost.StepTime / cpuHost.StepTime
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("GPU-host/CPU-host = %.2f, expected a modest shift", ratio)
	}
	if gpuHost.FixedUtilization < 0.5 {
		t.Errorf("GPU-host utilization collapsed to %.0f%%", gpuHost.FixedUtilization*100)
	}
	if _, err := runGPUHostHetero("NoSuchModel"); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestBatchSweep(t *testing.T) {
	withBatch := func(model Model, batch int) (Result, error) {
		return Simulate(BatchCell{Config: ConfigHeteroPIM, Model: model, BatchSize: batch}, nil)
	}
	small, err := withBatch(AlexNet, 8)
	if err != nil {
		t.Fatal(err)
	}
	big, err := withBatch(AlexNet, 128)
	if err != nil {
		t.Fatal(err)
	}
	// 16x the batch must cost substantially more wall clock but less
	// than 32x (sub-linear thanks to better unit utilization and
	// amortized overheads).
	ratio := big.StepTime / small.StepTime
	if ratio < 8 || ratio > 32 {
		t.Errorf("batch 128/8 step-time ratio = %.1f, want roughly linear", ratio)
	}
	if _, err := withBatch(AlexNet, -1); err != nil {
		t.Fatal("non-positive batch should fall back to the default, got error:", err)
	}
	// Non-CNN models are batch-fixed.
	if _, err := withBatch(LSTM, 64); err == nil {
		t.Fatal("LSTM batch override must error")
	}
}

func TestExtensionTables(t *testing.T) {
	for _, e := range ExtensionExperiments() {
		tab, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty table", e.ID)
		}
	}
}
