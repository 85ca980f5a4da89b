// Command pimtrain simulates steady-state NN training of one workload
// model on one platform configuration and prints the step time, the
// Fig. 8 breakdown, energy, and PIM utilization.
//
// Usage:
//
//	pimtrain -model VGG-19 -config hetero -freq 2
//	pimtrain -model ResNet-50 -config all
//	pimtrain -scenario grid.json            # declarative scenario file
//	pimtrain -model AlexNet -schedtrace     # dump scheduling decisions
//	pimtrain -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"heteropim"
	"heteropim/internal/cliutil"
	"heteropim/internal/core"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/report"
	"heteropim/internal/trace"
)

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pimtrain: %v\n", err)
	os.Exit(1)
}

// runExplain prints where every op type landed and where the joules
// went for one Hetero PIM run.
func runExplain(model string, batch int, freq float64) {
	g, err := nn.BuildWithBatch(nn.ModelName(model), batch)
	if err != nil {
		fail(err)
	}
	opts := core.HeteroOptions()
	// census counts the run's placements per op type and path.
	census := map[string]map[string]int{}
	opts.Trace = func(_ hw.Seconds, _ int, op *nn.Op, path string) {
		t := string(op.Type)
		if census[t] == nil {
			census[t] = map[string]int{}
		}
		census[t][path]++
	}
	r, err := core.RunPIM(g, hw.PaperConfigScaled(hw.ConfigHeteroPIM, freq), opts)
	if err != nil {
		fail(err)
	}
	// A type's placement may vary across steps, so each cell is the
	// mean per step: a row sums to the type's ops per step.
	ct := &report.Table{
		Title:   fmt.Sprintf("Placement census: %s on Hetero PIM (ops per step, mean of %d steps)", model, r.Steps),
		Columns: []string{"Op type", "Fixed", "Prog", "CPU"},
	}
	names := make([]string, 0, len(census))
	for t := range census {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		mean := func(path string) string {
			return fmt.Sprintf("%.2f", float64(census[t][path])/float64(r.Steps))
		}
		ct.AddRow(t, mean("fixed"), mean("prog"), mean("cpu"))
	}
	fmt.Println(ct.String())

	rep := heteropim.EnergyOf(r)
	et := &report.Table{
		Title:   "Energy itemization per step",
		Columns: []string{"Component", "Joules", "Share"},
	}
	parts := []struct {
		name string
		j    float64
	}{
		{"Host CPU", rep.Parts.CPU},
		{"Programmable PIM", rep.Parts.ProgPIM},
		{"Fixed-function PIMs", rep.Parts.FixedPIM},
		{"DRAM background", rep.Parts.DRAM},
		{"Data movement", rep.Parts.Traffic},
	}
	for _, p := range parts {
		et.AddRow(p.name, report.Joules(p.j), report.Percent(p.j/rep.Dynamic))
	}
	et.AddRow("TOTAL", report.Joules(rep.Dynamic), "100.0%")
	fmt.Println(et.String())
}

func main() {
	model := flag.String("model", "VGG-19", "workload model (see -list)")
	config := flag.String("config", "hetero", "platform: cpu|gpu|progr|fixed|hetero|all")
	freq := flag.Float64("freq", 1, "PIM/stack frequency scale (1, 2 or 4)")
	batch := flag.Int("batch", 0, "batch size override (0 = the paper's default)")
	stacks := flag.Int("stacks", 1, "HMC stacks to shard the minibatch across (data-parallel training; PIM configs only)")
	allreduce := flag.String("allreduce", "ring", "gradient all-reduce schedule for -stacks > 1: ring|tree")
	schedTrace := flag.Bool("schedtrace", false, "print every Hetero PIM scheduling decision to stderr")
	fromTrace := flag.String("fromtrace", "", "replay an instruction trace file (pimprof -trace output) instead of building a model")
	explain := flag.Bool("explain", false, "print the Hetero PIM placement census and energy itemization")
	metricsOut := flag.String("metrics", "", "run instrumented and write the metrics JSON dump to this file (\"-\" for stdout)")
	advise := flag.Bool("advise", false, "run instrumented and print the tfprof-style advisor reading")
	loadScenario := cliutil.ScenarioFlag(flag.CommandLine)
	applyCache := cliutil.CacheFlags(flag.CommandLine)
	startProfile := cliutil.ProfileFlags(flag.CommandLine)
	list := flag.Bool("list", false, "list models and configurations")
	flag.Parse()

	applyCache()
	defer startProfile()()

	// -schedtrace, -explain and -fromtrace each run one single-stack
	// Hetero PIM cell: a flag asking for another cell is an error, not
	// something to ignore.
	for _, f := range []struct {
		name string
		on   bool
	}{{"-schedtrace", *schedTrace}, {"-explain", *explain}, {"-fromtrace", *fromTrace != ""}} {
		if !f.on {
			continue
		}
		if kind, err := heteropim.ParseConfig(*config); err != nil || kind != heteropim.ConfigHeteroPIM {
			fail(fmt.Errorf("%s runs a Hetero PIM cell; -config %s is not supported with it", f.name, *config))
		}
		if *stacks > 1 {
			fail(fmt.Errorf("%s runs a single-stack cell; -stacks %d is not supported with it", f.name, *stacks))
		}
	}
	if *fromTrace != "" && *batch != 0 {
		fail(fmt.Errorf("-fromtrace replays the trace's graph, which fixes the batch; -batch %d is not supported with it", *batch))
	}
	// The schedule is checked on one stack too: a misspelt -allreduce is
	// an error whether or not the cell exchanges gradients.
	if _, err := nn.ParseAllReduceKind(*allreduce); err != nil {
		fail(fmt.Errorf("-allreduce: %w", err))
	}
	// A scenario file declares its own cells, so every flag that
	// describes or instruments a cell would be ignored next to it. An
	// empty -scenario runs the flag-driven cells, like no -scenario.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if flag.Lookup("scenario").Value.String() != "" {
		var ignored []string
		for _, name := range []string{"model", "config", "freq", "batch", "stacks", "allreduce",
			"schedtrace", "fromtrace", "explain", "metrics", "advise", "list"} {
			if set[name] {
				ignored = append(ignored, "-"+name)
			}
		}
		if len(ignored) > 0 {
			fail(fmt.Errorf("-scenario runs the cells its file declares; %s cannot be combined with it", strings.Join(ignored, ", ")))
		}
	}

	if plan, err := loadScenario(); err != nil {
		fail(err)
	} else if plan != nil {
		runScenario(plan)
		return
	}

	if *fromTrace != "" {
		f, err := os.Open(*fromTrace)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		recs, err := trace.Read(f)
		if err != nil {
			fail(err)
		}
		g, err := trace.ToGraph(*fromTrace, recs)
		if err != nil {
			fail(err)
		}
		r, err := core.RunPIM(g, hw.PaperConfigScaled(hw.ConfigHeteroPIM, *freq), core.HeteroOptions())
		if err != nil {
			fail(err)
		}
		fmt.Printf("replayed %d ops: step=%s offloaded=%d util=%s\n",
			len(g.Ops), report.Seconds(r.StepTime), r.OffloadedOps,
			report.Percent(r.FixedUtilization))
		return
	}

	if *list {
		fmt.Println("models:")
		for _, m := range heteropim.AllModels() {
			fmt.Println("  ", m)
		}
		fmt.Println("configurations: cpu, gpu, progr, fixed, hetero, all")
		return
	}

	// Every remaining path consumes the model; resolve it once so an
	// unknown name fails fast with the valid list.
	modelName, err := heteropim.ParseModel(*model)
	if err != nil {
		fail(err)
	}

	if *schedTrace {
		g, err := nn.BuildWithBatch(modelName, *batch)
		if err != nil {
			fail(err)
		}
		opts := core.HeteroOptions()
		opts.Trace = func(at hw.Seconds, step int, op *nn.Op, path string) {
			fmt.Fprintf(os.Stderr, "t=%.9f step=%d op=%s path=%s\n", at, step, op.Name, path)
		}
		opts.Steps = 1
		if _, err := core.RunPIM(g, hw.PaperConfigScaled(hw.ConfigHeteroPIM, *freq), opts); err != nil {
			fail(err)
		}
		return
	}

	if *explain {
		runExplain(string(modelName), *batch, *freq)
		return
	}

	var configs []heteropim.Config
	if strings.EqualFold(*config, "all") {
		configs = heteropim.Configs()
	} else {
		kind, err := heteropim.ParseConfig(*config)
		if err != nil {
			fail(err)
		}
		configs = []heteropim.Config{kind}
	}

	// One cell per configuration, carrying every cell flag. The table
	// fans the cells out through BatchRun, the same plan a one-group
	// scenario file compiles to; -metrics/-advise simulate the one cell
	// instrumented.
	cell := heteropim.BatchCell{Model: modelName, BatchSize: *batch, FreqScale: *freq}
	if *stacks > 1 {
		cell.Stacks, cell.AllReduce = *stacks, *allreduce
	}
	cells := make([]heteropim.BatchCell, len(configs))
	for i, cfg := range configs {
		cells[i] = cell
		cells[i].Config = cfg
	}

	if *metricsOut != "" || *advise {
		if len(cells) != 1 {
			fail(fmt.Errorf("-metrics/-advise need a single -config, not \"all\""))
		}
		m := heteropim.NewMetrics()
		if _, err := heteropim.Simulate(cells[0], m); err != nil {
			fail(err)
		}
		if *metricsOut != "" {
			w := os.Stdout
			if *metricsOut != "-" {
				f, err := os.Create(*metricsOut)
				if err != nil {
					fail(err)
				}
				defer f.Close()
				w = f
			}
			if err := m.WriteJSON(w); err != nil {
				fail(err)
			}
		}
		if *advise {
			fmt.Println(m.Advice())
		}
		return
	}

	results, err := heteropim.BatchRun(cells)
	if err != nil {
		fail(err)
	}
	printTable(fmt.Sprintf("%s at %gx stack frequency", modelName, *freq), results)
	st := heteropim.SimulationCacheStats()
	fmt.Printf("simcache: hits=%d misses=%d\n", st.Hits, st.Misses)
}

// printTable renders one result table plus the multistack detail lines
// beneath it — shared by the flag path and the scenario path.
func printTable(title string, results []heteropim.Result) {
	t := &report.Table{
		Title: title,
		Columns: []string{"Config", "Step", "Operation", "DataMove", "Sync",
			"Energy", "Power", "Util", "Offloaded"},
	}
	for _, r := range results {
		t.AddRow(r.Config,
			report.Seconds(r.StepTime),
			report.Seconds(r.Breakdown.Operation),
			report.Seconds(r.Breakdown.DataMovement),
			report.Seconds(r.Breakdown.Sync),
			report.Joules(r.Energy),
			report.Watts(r.AvgPower),
			report.Percent(r.FixedUtilization),
			fmt.Sprintf("%d", r.OffloadedOps))
	}
	fmt.Print(t.String())
	for _, r := range results {
		if r.Stacks > 1 {
			line := fmt.Sprintf("multistack: %s: stacks=%d allreduce=%s stackstep=%s arstep=%s",
				r.Config, r.Stacks, r.AllReduce,
				report.Seconds(r.StackStepTime), report.Seconds(r.AllReduceTime))
			if r.StackMaxTemp > 0 {
				line += fmt.Sprintf(" stacktemp=%.1fC", r.StackMaxTemp)
			}
			fmt.Println(line)
		}
	}
}

// runScenario renders a compiled scenario plan as pimtrain tables: one
// table per (model, frequency) group in first-appearance order, with
// one row per cell, then the shared simcache line.
func runScenario(plan *heteropim.ScenarioPlan) {
	results, err := heteropim.BatchRun(plan.Cells)
	if err != nil {
		fail(err)
	}
	type groupKey struct {
		model heteropim.Model
		freq  float64
	}
	keyOf := func(c heteropim.BatchCell) groupKey {
		k := groupKey{model: c.Model, freq: c.FreqScale}
		if k.freq == 0 {
			k.freq = 1
		}
		return k
	}
	var order []groupKey
	grouped := map[groupKey][]heteropim.Result{}
	for i, c := range plan.Cells {
		k := keyOf(c)
		if _, ok := grouped[k]; !ok {
			order = append(order, k)
		}
		grouped[k] = append(grouped[k], results[i])
	}
	for _, k := range order {
		printTable(fmt.Sprintf("%s at %gx stack frequency", k.model, k.freq), grouped[k])
	}
	st := heteropim.SimulationCacheStats()
	fmt.Printf("simcache: hits=%d misses=%d\n", st.Hits, st.Misses)
}
