package heteropim

import (
	"sync"
	"testing"

	"heteropim/internal/core"
	"heteropim/internal/nn"
)

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

// memoryCacheOnly enables the simulation cache without its disk tier
// for the test, so hit and miss counts do not depend on the
// environment's HETEROPIM_CACHE_DIR.
func memoryCacheOnly(t *testing.T) {
	prevOn := SetSimulationCache(true)
	prevDir := SetSimulationCacheDir("")
	t.Cleanup(func() {
		SetSimulationCache(prevOn)
		SetSimulationCacheDir(prevDir)
	})
}

// TestSimulateHitBuildsNothing: a cached cell is looked up by its
// model's memoized digest before any graph is built, so a second
// Simulate of a warm cell costs a hash of the cell's configuration —
// a handful of allocations, where building the graph takes hundreds —
// returns the first Result bit for bit and counts as one cache hit.
func TestSimulateHitBuildsNothing(t *testing.T) {
	memoryCacheOnly(t)
	cells := []BatchCell{
		{Config: ConfigCPU, Model: AlexNet},
		{Config: ConfigGPU, Model: VGG19},
		{Config: ConfigHeteroPIM, Model: DCGAN},
		{Config: ConfigHeteroPIM, Model: AlexNet, FreqScale: 2},
		{Config: ConfigHeteroPIM, Model: AlexNet, BatchSize: 16},
		{Model: AlexNet, Variant: &Variant{RecursiveKernels: true}},
		{Model: DCGAN, Processors: 4},
		{Config: ConfigHeteroPIM, Model: AlexNet, Stacks: 2, AllReduce: AllReduceTree},
	}
	for _, c := range cells {
		first, err := Simulate(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := SimulationCacheStats()
		again, err := Simulate(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		after := SimulationCacheStats()
		if again != first {
			t.Errorf("%+v: hit %+v differs from the first run %+v", c, again, first)
		}
		if after.Hits != before.Hits+1 || after.Misses != before.Misses {
			t.Errorf("%+v: second run moved the cache stats %+v -> %+v, want exactly one hit", c, before, after)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Simulate(c, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 10 {
			t.Errorf("%+v: a cache hit allocates %.0f times, want at most 10 (no graph build)", c, allocs)
		}
	}
}

// TestConcurrentColdSimulate runs one cold cell from 8 goroutines at
// once: they race on the model-digest memo and on the cell's cache
// entry, and all must get the same Result from one simulation.
func TestConcurrentColdSimulate(t *testing.T) {
	memoryCacheOnly(t)
	ResetSimulationCache()
	c := BatchCell{Config: ConfigHeteroPIM, Model: DCGAN, BatchSize: 48}
	results := make([]Result, 8)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Simulate(c, nil)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Errorf("goroutine %d got %+v, goroutine 0 %+v", i, results[i], results[0])
		}
	}
	if st := SimulationCacheStats(); st.Misses != 1 || st.Hits != int64(len(results)-1) {
		t.Errorf("8 concurrent runs of one cold cell gave stats %+v, want 1 miss and 7 hits", st)
	}
}

// TestBatchRunBuildsOneGraphPerModelBatch: the cells of one BatchRun or
// simulateMatrix call that share a model and normalized batch size share
// one source, so the call builds one graph per pair however many of its
// cells miss the result cache.
func TestBatchRunBuildsOneGraphPerModelBatch(t *testing.T) {
	memoryCacheOnly(t)
	cells := []BatchCell{
		{Config: ConfigCPU, Model: AlexNet},
		{Config: ConfigGPU, Model: AlexNet, BatchSize: 32}, // AlexNet's paper batch
		{Config: ConfigHeteroPIM, Model: AlexNet},
		{Config: ConfigHeteroPIM, Model: AlexNet, FreqScale: 2},
		{Model: AlexNet, Variant: &Variant{RecursiveKernels: true}},
		{Model: AlexNet, Processors: 4},
		{Config: ConfigFixedPIM, Model: AlexNet, BatchSize: 16},
		{Config: ConfigProgrPIM, Model: AlexNet, BatchSize: 16},
		{Config: ConfigHeteroPIM, Model: DCGAN},
		{Config: ConfigCPU, Model: DCGAN},
	}
	ResetSimulationCache()
	core.ResetProfileCache()
	before := nn.Builds()
	if _, err := BatchRun(cells); err != nil {
		t.Fatal(err)
	}
	if b := nn.Builds() - before; b != 3 {
		t.Errorf("BatchRun of %d cold cells over 3 (model, batch) pairs built %d graphs, want 3", len(cells), b)
	}
	if st := SimulationCacheStats(); st.Misses != int64(len(cells)) {
		t.Errorf("cache stats %+v, want every cell a miss", st)
	}

	ResetSimulationCache()
	core.ResetProfileCache()
	models, configs := []Model{AlexNet, DCGAN}, Configs()
	before = nn.Builds()
	if _, err := simulateMatrix(len(models), len(configs), func(r, c int) BatchCell {
		return BatchCell{Config: configs[c], Model: models[r]}
	}); err != nil {
		t.Fatal(err)
	}
	if b := nn.Builds() - before; b != int64(len(models)) {
		t.Errorf("a cold %dx%d figure matrix built %d graphs, want %d", len(models), len(configs), b, len(models))
	}
}
