package heteropim

import "testing"

// TestBatchRunMatchesSequentialRuns pins the BatchRun contract: results
// are bit-identical to calling Simulate per cell sequentially, in input
// order, across all four sweep axes pimsweep uses.
func TestBatchRunMatchesSequentialRuns(t *testing.T) {
	cells := []BatchCell{
		{Config: ConfigCPU, Model: AlexNet},
		{Config: ConfigHeteroPIM, Model: AlexNet},
		{Config: ConfigHeteroPIM, Model: VGG19, FreqScale: 2},
		{Model: AlexNet, Variant: &Variant{RecursiveKernels: true}},
		{Model: AlexNet, Variant: &Variant{RecursiveKernels: true, OperationPipeline: true}},
		{Config: ConfigGPU, Model: AlexNet, BatchSize: 64},
		{Config: ConfigHeteroPIM, Model: AlexNet, BatchSize: 64},
		{Model: DCGAN, Processors: 4},
	}
	got, err := BatchRun(cells)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Result, len(cells))
	for i, c := range cells {
		var err error
		if want[i], err = Simulate(c, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d: BatchRun diverged from the sequential run:\n got %+v\nwant %+v",
				i, got[i], want[i])
		}
	}
}

// TestBatchRunRejectsConflictingAxes covers the validation path.
func TestBatchRunRejectsConflictingAxes(t *testing.T) {
	_, err := BatchRun([]BatchCell{{Model: AlexNet, Variant: &Variant{}, Processors: 2}})
	if err == nil {
		t.Fatal("cell with both Variant and Processors accepted")
	}
}

// TestBatchRunRejectsBatchSizeWithVariantOrProcessors: the variant and
// processor studies run at the paper batch, so a cell that also asks
// for another batch size has no meaning and must be refused rather
// than silently run at the paper batch.
func TestBatchRunRejectsBatchSizeWithVariantOrProcessors(t *testing.T) {
	for _, c := range []BatchCell{
		{Model: AlexNet, BatchSize: 16, Variant: &Variant{RecursiveKernels: true, OperationPipeline: true}},
		{Model: AlexNet, BatchSize: 128, Processors: 4},
	} {
		if _, err := BatchRun([]BatchCell{c}); err == nil {
			t.Errorf("BatchRun accepted %+v, want a batch-size conflict error", c)
		}
	}
}

// TestBatchRunStatsCountGroups checks the counters the CLIs surface.
func TestBatchRunStatsCountGroups(t *testing.T) {
	ResetBatchStats()
	defer ResetBatchStats()
	cells := []BatchCell{
		{Config: ConfigCPU, Model: AlexNet},
		{Config: ConfigGPU, Model: AlexNet},
		{Config: ConfigHeteroPIM, Model: AlexNet},
		{Config: ConfigHeteroPIM, Model: VGG19},
	}
	if _, err := BatchRun(cells); err != nil {
		t.Fatal(err)
	}
	st := BatchRunStats()
	if st.Cells != 4 {
		t.Errorf("counted %d cells, want 4", st.Cells)
	}
	// AlexNet splits by pipeline options (hetero vs baselines), VGG-19
	// adds a third group.
	if st.Groups != 3 || st.Leaders != 3 {
		t.Errorf("groups=%d leaders=%d, want 3/3", st.Groups, st.Leaders)
	}
}
