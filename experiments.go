package heteropim

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"heteropim/internal/core"
	"heteropim/internal/device"
	"heteropim/internal/energy"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/report"
	"heteropim/internal/runner"
	"heteropim/internal/workload"
)

// Table is a rendered experiment result.
type Table = report.Table

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	// ID is the paper artifact id: "T1", "F2", "F8" ... "F17".
	ID string
	// Title describes the artifact.
	Title string
	// Run produces the table.
	Run func() (*Table, error)
}

// Experiments returns a runner per paper table/figure, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"T1", "Table I: operation profiling (top-5 CI and MI ops)", TableI},
		{"F2", "Fig. 2: four-class operation taxonomy", Fig2Classes},
		{"F8", "Fig. 8: execution time breakdown, 5 models x 5 configurations", Fig8ExecTime},
		{"F9", "Fig. 9: normalized dynamic energy", Fig9Energy},
		{"F10", "Fig. 10: performance and energy vs Neurocube", Fig10Neurocube},
		{"F11", "Fig. 11: 3D memory frequency scaling (1x/2x/4x)", Fig11FreqScaling},
		{"F12", "Fig. 12: programmable PIM scaling (1P/4P/16P)", Fig12ProgScaling},
		{"F13", "Fig. 13: execution time with/without RC and OP", Fig13SoftwareImpact},
		{"F14", "Fig. 14: energy with/without RC and OP", Fig14SoftwareEnergy},
		{"F15", "Fig. 15: fixed-function PIM utilization with/without RC and OP", Fig15Utilization},
		{"F16", "Fig. 16: mixed workloads, co-run vs sequential", Fig16Mixed},
		{"F17", "Fig. 17: EDP and power under frequency scaling", Fig17EDP},
	}
}

// profiledModels are the three models of Table I.
func profiledModels() []Model { return []Model{VGG19, AlexNet, DCGAN} }

// ---- parallel fan-out helpers ----
//
// Every figure is a grid of INDEPENDENT pure simulations, so each cell
// fans out on the internal/runner worker pool and results are
// reassembled in input order. Parallel and sequential executions of a
// figure therefore produce bit-identical tables (the determinism each
// simulation needs lives inside its own engine; see internal/runner).

// runJobs evaluates simulation jobs concurrently, returning results in
// job order.
func runJobs(jobs []func() (Result, error)) ([]Result, error) {
	return runner.Map(context.Background(), len(jobs), 0,
		func(_ context.Context, i int) (Result, error) { return jobs[i]() })
}

// simulateMatrix simulates the cell cross(r, c) of every row r and
// column c concurrently; the result is indexed [row][column]. Figures
// fan out here rather than through BatchRun: their cells need no
// leader grouping. Cells of one model and batch size share one source,
// so the call builds each graph its uncached cells run at most once,
// and lets it go when the last of those cells is done.
func simulateMatrix(nr, nc int, cross func(r, c int) BatchCell) ([][]Result, error) {
	srcs := nn.ShareNamed(nr*nc, func(i int) (nn.ModelName, int) {
		c := cross(i/nc, i%nc)
		return c.Model, c.BatchSize
	})
	flat, err := runner.Map(context.Background(), nr*nc, 0,
		func(_ context.Context, i int) (Result, error) {
			src := srcs[i]
			srcs[i] = nil
			return simulate(cross(i/nc, i%nc), nil, src)
		})
	if err != nil {
		return nil, err
	}
	grid := make([][]Result, nr)
	for r := range grid {
		grid[r] = flat[r*nc : (r+1)*nc]
	}
	return grid, nil
}

// runGrid simulates every (model, configuration) cell of a figure's
// matrix concurrently; the result is indexed [model][config].
func runGrid(models []Model, configs []Config) ([][]Result, error) {
	return simulateMatrix(len(models), len(configs), func(mi, ci int) BatchCell {
		return BatchCell{Config: configs[ci], Model: models[mi]}
	})
}

// configIndex finds a configuration's column in a figure's config list.
func configIndex(configs []Config, want Config) int {
	for i, c := range configs {
		if c == want {
			return i
		}
	}
	return -1
}

// rowGroups computes one group of table rows per item, in item order.
// Its users run inline, because worker dispatch would cost more than
// the work: Table I and Fig. 2 read a cached per-type profile (a few
// microseconds per item once warm; a cold item builds its graph once),
// and the workload summaries build one graph per item.
func rowGroups(n int, fn func(i int) ([][]string, error)) ([][][]string, error) {
	groups := make([][][]string, n)
	for i := range groups {
		g, err := fn(i)
		if err != nil {
			return nil, err
		}
		groups[i] = g
	}
	return groups, nil
}

// addGroups appends row groups to a table in order.
func addGroups(t *Table, groups [][][]string) {
	for _, g := range groups {
		for _, row := range g {
			t.AddRow(row...)
		}
	}
}

// TableI reproduces the operation-profiling table: for each of VGG-19,
// AlexNet and DCGAN, the top-5 operations by execution time ("CI ops")
// and by main-memory accesses ("MI ops"), with their shares and
// invocation counts.
func TableI() (*Table, error) { return TableIFor(profiledModels()) }

// TableIFor is TableI over an explicit model set (scenario-driven
// profiling; TableI keeps the paper's three models).
func TableIFor(models []Model) (*Table, error) {
	t := &Table{
		Title:   "Table I: operation profiling (one training step on CPU)",
		Columns: []string{"Model", "Rank", "Top CI Op", "Time%", "#Inv", "Top MI Op", "Mem%", "#Inv"},
	}
	groups, err := rowGroups(len(models), func(i int) ([][]string, error) {
		m := models[i]
		prof, err := modelTypeProfile(m)
		if err != nil {
			return nil, err
		}
		// The types come in name order, so the stable sorts break
		// ties by name.
		types := prof.Types
		byTime := slices.Clone(types)
		slices.SortStableFunc(byTime, func(a, b core.TypeTotal) int { return cmp.Compare(b.Time, a.Time) })
		byMem := slices.Clone(types)
		slices.SortStableFunc(byMem, func(a, b core.TypeTotal) int { return cmp.Compare(b.MemAccesses, a.MemAccesses) })
		top := min(5, len(types))
		var out [][]string
		for i := 0; i < top; i++ {
			ci, mi := byTime[i], byMem[i]
			out = append(out, []string{string(m), fmt.Sprintf("%d", i+1),
				string(ci.Type), fmt.Sprintf("%.2f", 100*ci.Time/prof.TotalTime), fmt.Sprintf("%d", ci.Ops),
				string(mi.Type), fmt.Sprintf("%.2f", 100*mi.MemAccesses/prof.TotalAccesses), fmt.Sprintf("%d", mi.Ops)})
		}
		// The "Other N op types" tail, summed in type-name order.
		var otherT float64
		otherInv := 0
		for _, tt := range types {
			if !slices.ContainsFunc(byTime[:top], func(c core.TypeTotal) bool { return c.Type == tt.Type }) {
				otherT += tt.Time
				otherInv += tt.Ops
			}
		}
		out = append(out, []string{string(m), "-",
			fmt.Sprintf("Other %d op types", len(types)-top),
			fmt.Sprintf("%.2f", 100*otherT/prof.TotalTime), fmt.Sprintf("%d", otherInv),
			"", "", ""})
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	addGroups(t, groups)
	t.Notes = append(t.Notes,
		"paper shape: top-5 ops >=95% of time and >=90% of accesses; conv backprops lead both lists")
	return t, nil
}

// modelTypeProfile reads a model's cached step profile, summed per op
// type, by the model's memoized digest: a warm call builds no graph,
// and a cold one builds it once for Table I and Fig. 2 together.
func modelTypeProfile(m Model) (core.TypeProfile, error) {
	src, err := nn.Named(m, 0)
	if err != nil {
		return core.TypeProfile{}, err
	}
	return core.CachedTypeProfile(src, hw.PaperCPU()), nil
}

// Fig2Classes reproduces the four-class operation taxonomy.
func Fig2Classes() (*Table, error) { return Fig2ClassesFor(profiledModels()) }

// Fig2ClassesFor is Fig2Classes over an explicit model set.
func Fig2ClassesFor(models []Model) (*Table, error) {
	t := &Table{
		Title:   "Fig. 2: operation classes (1=CI, 2=CI+MI offload targets, 3=MI only, 4=neither)",
		Columns: []string{"Model", "Class1", "Class2", "Class3", "Class4"},
	}
	groups, err := rowGroups(len(models), func(i int) ([][]string, error) {
		prof, err := modelTypeProfile(models[i])
		if err != nil {
			return nil, err
		}
		c := prof.Classes
		return [][]string{{string(models[i]), fmt.Sprint(c[nn.Class1]), fmt.Sprint(c[nn.Class2]),
			fmt.Sprint(c[nn.Class3]), fmt.Sprint(c[nn.Class4])}}, nil
	})
	if err != nil {
		return nil, err
	}
	addGroups(t, groups)
	return t, nil
}

// Fig8ExecTime reproduces the execution-time breakdown of the five CNN
// models across the five configurations.
func Fig8ExecTime() (*Table, error) {
	t := &Table{
		Title:   "Fig. 8: execution time breakdown per training step",
		Columns: []string{"Model", "Config", "Step", "Operation", "DataMove", "Sync", "vs Hetero"},
	}
	models, configs := Models(), Configs()
	grid, err := runGrid(models, configs)
	if err != nil {
		return nil, err
	}
	hetIdx := configIndex(configs, ConfigHeteroPIM)
	for mi, m := range models {
		het := grid[mi][hetIdx]
		for ci := range configs {
			r := grid[mi][ci]
			t.AddRow(string(m), r.Config,
				report.Seconds(r.StepTime),
				report.Seconds(r.Breakdown.Operation),
				report.Seconds(r.Breakdown.DataMovement),
				report.Seconds(r.Breakdown.Sync),
				report.Ratio(r.StepTime/het.StepTime))
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: PIM designs beat CPU by 19%-28x; Hetero beats Progr 2.5-23x and Fixed 1.4-5.7x",
		"paper shape: DCGAN loses to GPU, ResNet-50 beats GPU, others within ~10% of GPU")
	return t, nil
}

// Fig9Energy reproduces the normalized dynamic energy comparison.
func Fig9Energy() (*Table, error) {
	t := &Table{
		Title:   "Fig. 9: dynamic energy per step, normalized to Hetero PIM",
		Columns: []string{"Model", "Config", "Energy", "AvgPower", "Normalized"},
	}
	models, configs := Models(), Configs()
	grid, err := runGrid(models, configs)
	if err != nil {
		return nil, err
	}
	hetIdx := configIndex(configs, ConfigHeteroPIM)
	for mi, m := range models {
		het := grid[mi][hetIdx]
		for ci := range configs {
			r := grid[mi][ci]
			t.AddRow(string(m), r.Config, report.Joules(r.Energy),
				report.Watts(r.AvgPower), report.Ratio(r.Energy/het.Energy))
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: CPU 3-24x and GPU 1.3-5x above Hetero; Progr PIM the highest")
	return t, nil
}

// runNeurocube simulates the Neurocube comparison point of Fig. 10 — a
// platform outside the cell axes, so it bypasses Simulate.
func runNeurocube(model Model) (Result, error) {
	src, err := nn.Named(model, 0)
	if err != nil {
		return Result{}, err
	}
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	return wrap(core.RunNeurocube(src, device.DefaultNeurocube(), cfg)), nil
}

// Fig10Neurocube reproduces the Neurocube comparison.
func Fig10Neurocube() (*Table, error) {
	t := &Table{
		Title:   "Fig. 10: Neurocube vs Hetero PIM (ratios of Neurocube to Hetero)",
		Columns: []string{"Model", "Time ratio", "Energy ratio"},
	}
	models := Models()
	jobs := make([]func() (Result, error), 0, 2*len(models))
	for _, m := range models {
		m := m
		jobs = append(jobs,
			func() (Result, error) { return Run(ConfigHeteroPIM, m) },
			func() (Result, error) { return runNeurocube(m) })
	}
	results, err := runJobs(jobs)
	if err != nil {
		return nil, err
	}
	for mi, m := range models {
		het, nc := results[2*mi], results[2*mi+1]
		t.AddRow(string(m), report.Ratio(nc.StepTime/het.StepTime), report.Ratio(nc.Energy/het.Energy))
	}
	t.Notes = append(t.Notes, "paper shape: Hetero at least 3x better in performance and energy")
	return t, nil
}

// freqGrid simulates, per model, the GPU baseline followed by Hetero
// PIM at each stack frequency (Figs. 11 and 17); the result is indexed
// [model][0 = GPU, 1+i = freqs[i]].
func freqGrid(models []Model, freqs []float64) ([][]Result, error) {
	return simulateMatrix(len(models), 1+len(freqs), func(mi, col int) BatchCell {
		if col == 0 {
			return BatchCell{Config: ConfigGPU, Model: models[mi]}
		}
		return BatchCell{Config: ConfigHeteroPIM, Model: models[mi], FreqScale: freqs[col-1]}
	})
}

// Fig11FreqScaling reproduces the 1x/2x/4x frequency-scaling study.
func Fig11FreqScaling() (*Table, error) {
	t := &Table{
		Title:   "Fig. 11: Hetero PIM under 3D memory frequency scaling",
		Columns: []string{"Model", "Freq", "Step", "Operation", "DataMove", "Sync", "GPU/Hetero"},
	}
	models := Models()
	freqs := []float64{1, 2, 4}
	grid, err := freqGrid(models, freqs)
	if err != nil {
		return nil, err
	}
	for mi, m := range models {
		gpu := grid[mi][0]
		for fi, f := range freqs {
			r := grid[mi][1+fi]
			t.AddRow(string(m), fmt.Sprintf("%gx", f),
				report.Seconds(r.StepTime),
				report.Seconds(r.Breakdown.Operation),
				report.Seconds(r.Breakdown.DataMovement),
				report.Seconds(r.Breakdown.Sync),
				report.Ratio(gpu.StepTime/r.StepTime))
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: higher frequency beats GPU; VGG-19 saturates between 2x and 4x, AlexNet keeps gaining")
	return t, nil
}

// Fig12ProgScaling reproduces the programmable-PIM scaling study.
func Fig12ProgScaling() (*Table, error) {
	t := &Table{
		Title:   "Fig. 12: programmable PIM scaling at constant logic-die area",
		Columns: []string{"Model", "Processors", "Step", "Utilization", "vs 1P"},
	}
	models := Models()
	procs := []int{1, 4, 16}
	grid, err := simulateMatrix(len(models), len(procs), func(mi, ni int) BatchCell {
		return BatchCell{Model: models[mi], Processors: procs[ni]}
	})
	if err != nil {
		return nil, err
	}
	for mi, m := range models {
		base := grid[mi][0]
		for ni, n := range procs {
			r := grid[mi][ni]
			t.AddRow(string(m), fmt.Sprintf("%dP", n),
				report.Seconds(r.StepTime),
				report.Percent(r.FixedUtilization),
				report.Ratio(r.StepTime/base.StepTime))
		}
	}
	t.Notes = append(t.Notes, "paper shape: 1P vs 16P differ by only 12-14%")
	return t, nil
}

// softwareVariants enumerates the Section VI-E variants in figure order.
func softwareVariants() []struct {
	Name string
	V    Variant
} {
	return []struct {
		Name string
		V    Variant
	}{
		{"no RC, no OP", Variant{}},
		{"RC only", Variant{RecursiveKernels: true}},
		{"OP only", Variant{OperationPipeline: true}},
		{"RC + OP", Variant{RecursiveKernels: true, OperationPipeline: true}},
	}
}

// runVariantMatrix simulates every (model, RC/OP variant) cell
// concurrently; results are indexed [model][variant] in
// softwareVariants order.
func runVariantMatrix(models []Model) ([][]Result, error) {
	vs := softwareVariants()
	return simulateMatrix(len(models), len(vs), func(mi, vi int) BatchCell {
		return BatchCell{Model: models[mi], Variant: &vs[vi].V}
	})
}

// Fig13SoftwareImpact reproduces the execution-time software study.
func Fig13SoftwareImpact() (*Table, error) {
	t := &Table{
		Title:   "Fig. 13: Hetero PIM execution time with/without RC and OP",
		Columns: []string{"Model", "Variant", "Step", "Sync", "Speedup vs no-RC/no-OP"},
	}
	models := Models()
	grid, err := runVariantMatrix(models)
	if err != nil {
		return nil, err
	}
	for mi, m := range models {
		base := grid[mi][0]
		for vi, v := range softwareVariants() {
			r := grid[mi][vi]
			t.AddRow(string(m), v.Name, report.Seconds(r.StepTime),
				report.Seconds(r.Breakdown.Sync), report.Ratio(base.StepTime/r.StepTime))
		}
	}
	t.Notes = append(t.Notes, "paper shape: RC+OP improve Hetero PIM by up to 3.8x")
	return t, nil
}

// Fig14SoftwareEnergy reproduces the energy software study.
func Fig14SoftwareEnergy() (*Table, error) {
	t := &Table{
		Title:   "Fig. 14: Hetero PIM energy with/without RC and OP (normalized to RC+OP)",
		Columns: []string{"Model", "Variant", "Energy", "Normalized"},
	}
	models := Models()
	grid, err := runVariantMatrix(models)
	if err != nil {
		return nil, err
	}
	vs := softwareVariants()
	for mi, m := range models {
		full := grid[mi][len(vs)-1] // "RC + OP" is the last variant
		for vi, v := range vs {
			r := grid[mi][vi]
			t.AddRow(string(m), v.Name, report.Joules(r.Energy), report.Ratio(r.Energy/full.Energy))
		}
	}
	t.Notes = append(t.Notes, "paper shape: RC+OP reduce energy by up to 3.9x")
	return t, nil
}

// Fig15Utilization reproduces the fixed-function utilization study.
func Fig15Utilization() (*Table, error) {
	t := &Table{
		Title:   "Fig. 15: fixed-function PIM utilization with/without RC and OP",
		Columns: []string{"Model", "Variant", "Utilization"},
	}
	models := Models()
	grid, err := runVariantMatrix(models)
	if err != nil {
		return nil, err
	}
	for mi, m := range models {
		for vi, v := range softwareVariants() {
			t.AddRow(string(m), v.Name, report.Percent(grid[mi][vi].FixedUtilization))
		}
	}
	t.Notes = append(t.Notes, "paper shape: with RC and OP utilization approaches 100%")
	return t, nil
}

// MixedResult re-exports the Fig. 16 co-run outcome.
type MixedResult = workload.MixedResult

// RunMixedWorkloads runs the six co-run cases of Section VI-F.
func RunMixedWorkloads() ([]MixedResult, error) { return workload.RunAllMixed() }

// Fig16Mixed reproduces the mixed-workload study.
func Fig16Mixed() (*Table, error) {
	results, err := workload.RunAllMixed()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig. 16: mixed workloads — co-run vs sequential execution",
		Columns: []string{"Case", "Sequential", "Co-run", "Improvement"},
	}
	for _, r := range results {
		t.AddRow(r.Case.Name(), report.Seconds(r.Sequential), report.Seconds(r.CoRun),
			report.Percent(r.Improvement))
	}
	t.Notes = append(t.Notes, "paper shape: 69%-83% improvement from co-running")
	return t, nil
}

// Fig17EDP reproduces the EDP and power study.
func Fig17EDP() (*Table, error) {
	t := &Table{
		Title:   "Fig. 17: energy efficiency (EDP) and power under frequency scaling",
		Columns: []string{"Model", "Freq", "EDP(J*s)", "HeteroPower", "GPUPower/HeteroPower"},
	}
	models := Models()
	freqs := []float64{1, 2, 4}
	grid, err := freqGrid(models, freqs)
	if err != nil {
		return nil, err
	}
	for mi, m := range models {
		gpu := grid[mi][0]
		for fi, f := range freqs {
			r := grid[mi][1+fi]
			t.AddRow(string(m), fmt.Sprintf("%gx", f),
				fmt.Sprintf("%.3g", r.EDP),
				report.Watts(r.AvgPower),
				report.Ratio(gpu.AvgPower/r.AvgPower))
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: 4x frequency is the most energy-efficient point; GPU draws 1.5-2.6x more power than Hetero at 4x")
	return t, nil
}

// EnergyOf evaluates the whole-system energy report for an internal
// result (used by tools that need the itemized parts).
func EnergyOf(r core.Result) energy.Report { return energy.Evaluate(r) }

// ModelSummaries renders the workload-characteristics table: per model,
// graph size, parameters, per-step arithmetic and main-memory traffic,
// and the Fig. 2 class mix — the "Section V-C workloads" overview.
func ModelSummaries() (*Table, error) { return ModelSummariesFor(AllModels()) }

// ModelSummariesFor is ModelSummaries over an explicit model set.
func ModelSummariesFor(models []Model) (*Table, error) {
	t := &Table{
		Title:   "Workload characteristics (one training step, paper batch sizes)",
		Columns: []string{"Model", "Batch", "Ops", "Params", "GFLOPs", "GB", "Class2 ops"},
	}
	groups, err := rowGroups(len(models), func(i int) ([][]string, error) {
		g, err := nn.Build(models[i])
		if err != nil {
			return nil, err
		}
		flops, bytes := g.Totals()
		classes := g.ClassCounts()
		return [][]string{{string(models[i]),
			fmt.Sprintf("%d", g.BatchSize),
			fmt.Sprintf("%d", len(g.Ops)),
			fmt.Sprintf("%.1fM", g.ParamBytes/4/1e6),
			fmt.Sprintf("%.1f", flops/1e9),
			fmt.Sprintf("%.2f", bytes/1e9),
			fmt.Sprintf("%d", classes[nn.Class2])}}, nil
	})
	if err != nil {
		return nil, err
	}
	addGroups(t, groups)
	return t, nil
}
