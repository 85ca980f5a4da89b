package heteropim

import (
	"context"
	"fmt"

	"heteropim/internal/core"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/report"
	"heteropim/internal/runner"
	"heteropim/internal/workload"
)

// Extension studies: experiments the paper discusses but does not
// evaluate. E1 builds the Section II-D alternative (heterogeneous PIM
// attached to a GPU system); E2 sweeps the training batch size, which
// the paper fixes at the framework defaults.

// ExtensionExperiments returns the extension runners.
func ExtensionExperiments() []Experiment {
	return []Experiment{
		{"E1", "Extension: heterogeneous PIM attached to a GPU host (Section II-D)", ExtGPUHost},
		{"E2", "Extension: batch-size sensitivity of the Hetero PIM advantage", ExtBatchSweep},
		{"E3", "Extension: multi-tenant co-run beyond two jobs", ExtMultiTenant},
	}
}

// runGPUHostHetero simulates the heterogeneous PIM attached to a GPU
// system (E1): offloadable operations still run on the PIMs under the
// full runtime, but non-offloaded operations execute on the GPU at
// kernel-launch granularity. A GPU host is not a cell axis, so it
// bypasses Simulate.
func runGPUHostHetero(model Model) (Result, error) {
	src, err := nn.Named(model, 0)
	if err != nil {
		return Result{}, err
	}
	opts := core.HeteroOptions()
	opts.GPUHost = true
	r, err := core.RunPIM(src, hw.GPUHostHeteroConfig(1), opts)
	if err != nil {
		return Result{}, err
	}
	return wrap(r), nil
}

// ExtGPUHost compares CPU-attached vs GPU-attached heterogeneous PIM.
func ExtGPUHost() (*Table, error) {
	t := &Table{
		Title:   "Extension E1: heterogeneous PIM attached to CPU vs GPU hosts",
		Columns: []string{"Model", "Host", "Step", "Energy", "Util", "vs CPU-host"},
	}
	models := Models()
	jobs := make([]func() (Result, error), 0, 2*len(models))
	for _, m := range models {
		m := m
		jobs = append(jobs,
			func() (Result, error) { return Run(ConfigHeteroPIM, m) },
			func() (Result, error) { return runGPUHostHetero(m) })
	}
	results, err := runJobs(jobs)
	if err != nil {
		return nil, err
	}
	for mi, m := range models {
		cpuHost, gpuHost := results[2*mi], results[2*mi+1]
		t.AddRow(string(m), "CPU", report.Seconds(cpuHost.StepTime),
			report.Joules(cpuHost.Energy), report.Percent(cpuHost.FixedUtilization), "1.00x")
		t.AddRow(string(m), "GPU", report.Seconds(gpuHost.StepTime),
			report.Joules(gpuHost.Energy), report.Percent(gpuHost.FixedUtilization),
			report.Ratio(gpuHost.StepTime/cpuHost.StepTime))
	}
	t.Notes = append(t.Notes,
		"the paper argues (Section II-D) that a GPU host constrains fine-grained op scheduling;",
		"with the PIMs absorbing the offloadable 90%+, the host choice moves step time by only ~2-5%")
	return t, nil
}

// ExtBatchSweep sweeps AlexNet's batch size and reports where the
// Hetero PIM advantage over the GPU moves.
func ExtBatchSweep() (*Table, error) {
	t := &Table{
		Title:   "Extension E2: batch-size sensitivity (AlexNet)",
		Columns: []string{"Batch", "GPU step", "Hetero step", "GPU/Hetero", "Hetero util", "Hetero energy"},
	}
	batches := []int{8, 16, 32, 64, 128}
	configs := []Config{ConfigGPU, ConfigHeteroPIM}
	grid, err := simulateMatrix(len(batches), len(configs), func(bi, ci int) BatchCell {
		return BatchCell{Config: configs[ci], Model: AlexNet, BatchSize: batches[bi]}
	})
	if err != nil {
		return nil, err
	}
	for bi, batch := range batches {
		gpu, het := grid[bi][0], grid[bi][1]
		t.AddRow(fmt.Sprintf("%d", batch),
			report.Seconds(gpu.StepTime),
			report.Seconds(het.StepTime),
			report.Ratio(gpu.StepTime/het.StepTime),
			report.Percent(het.FixedUtilization),
			report.Joules(het.Energy))
	}
	t.Notes = append(t.Notes,
		"small batches shrink per-op parallelism and amplify per-kernel overheads on both sides")
	return t, nil
}

// TenantSpec re-exports the multi-tenant job description.
type TenantSpec = workload.TenantSpec

// MultiTenantResult re-exports the multi-tenant outcome.
type MultiTenantResult = workload.MultiTenantResult

// RunMultiTenant co-schedules N training jobs on one heterogeneous PIM
// system (the Fig. 16 study generalized beyond two tenants).
func RunMultiTenant(tenants []TenantSpec) (MultiTenantResult, error) {
	return workload.RunMultiTenant(tenants)
}

// ExtMultiTenant co-runs three job mixes.
func ExtMultiTenant() (*Table, error) {
	t := &Table{
		Title:   "Extension E3: multi-tenant co-run beyond two jobs",
		Columns: []string{"Tenants", "Sequential", "Co-run", "Improvement", "Worst slowdown"},
	}
	mixes := [][]TenantSpec{
		{{Model: AlexNet}, {Model: DCGAN}, {Model: Word2Vec, HostOnly: true}},
		{{Model: AlexNet}, {Model: InceptionV3}, {Model: LSTM, HostOnly: true}},
		{{Model: AlexNet}, {Model: DCGAN}, {Model: LSTM, HostOnly: true}, {Model: Word2Vec, HostOnly: true}},
	}
	results, err := runner.Map(context.Background(), len(mixes), 0,
		func(_ context.Context, i int) (MultiTenantResult, error) {
			return workload.RunMultiTenant(mixes[i])
		})
	if err != nil {
		return nil, err
	}
	for mi, mix := range mixes {
		r := results[mi]
		name := ""
		for i, ten := range mix {
			if i > 0 {
				name += "+"
			}
			name += string(ten.Model)
		}
		worst := 0.0
		for _, sdown := range r.Slowdowns {
			if sdown > worst {
				worst = sdown
			}
		}
		t.AddRow(name, report.Seconds(r.Sequential), report.Seconds(r.CoRun),
			report.Percent(r.Improvement), report.Ratio(worst))
	}
	t.Notes = append(t.Notes,
		"PIM-scheduled jobs serialize on the shared fixed-function pool; host-side jobs overlap almost freely",
		"worst slowdown = co-run makespan / the tenant's standalone time (the fairness price of sharing)")
	return t, nil
}
