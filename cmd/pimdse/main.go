// Command pimdse runs the hardware design-space exploration that the
// paper performed with McPAT and HotSpot (Section IV-D): it derives the
// fixed-function unit budget from the thermal model, shows the
// placement policy's thermal margin, and sweeps the unit budget's
// performance effect on a chosen model.
//
// Usage:
//
//	pimdse                 # thermal exploration + VGG-19 unit sweep
//	pimdse -model AlexNet
//	pimdse -dse            # branch-and-bound winner search, all CNNs
//	pimdse -dse -exhaustive           # same space, no optimizations
//	pimdse -dse -grid large           # interactive-DSE grid (~400 candidates)
//	pimdse -dse -grid xl              # interactive-DSE at scale (>= 2000 candidates)
//
// -surrogate, -delta, -deepdelta, -calibrate and -confidence (all default
// on) control the interactive-DSE optimizations: surrogate-guided
// candidate ordering, delta-simulation replay from per-group engine
// checkpoints (deep: from the deepest shared event boundary), the
// reference-calibrated admissible bound, and confidence-ordered rounds.
// Winners are identical under every flag combination — only the wall
// clock changes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"heteropim"
	"heteropim/internal/batch"
	"heteropim/internal/cliutil"
	"heteropim/internal/hmc"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/pim"
	"heteropim/internal/report"
	"heteropim/internal/runner"
	"heteropim/internal/thermal"
)

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pimdse: %v\n", err)
	os.Exit(1)
}

// exploreFlags are the flags that shape a -dse exploration.
type exploreFlags struct {
	exhaustive, surrogate, delta, deep, calibrate, confidence *bool
	stacks                                                    *int
	allreduce                                                 *string
}

func newExploreFlags(fs *flag.FlagSet) exploreFlags {
	return exploreFlags{
		exhaustive: fs.Bool("exhaustive", false, "with -dse: simulate every candidate instead of pruning"),
		surrogate:  fs.Bool("surrogate", true, "order candidates by a regression surrogate fitted on simulated results"),
		delta:      fs.Bool("delta", true, "fork candidate groups from engine checkpoints instead of simulating from scratch"),
		deep:       fs.Bool("deepdelta", true, "fork from the deepest shared event boundary instead of the first fixed-pool grant"),
		calibrate:  fs.Bool("calibrate", true, "prune with the reference-calibrated admissible bound on top of the analytic one"),
		confidence: fs.Bool("confidence", true, "batch likely-prunable candidates last using the surrogate's residual spread"),
		stacks:     fs.Int("stacks", 1, "with -dse: evaluate candidates sharded across this many HMC stacks"),
		allreduce:  fs.String("allreduce", "ring", "gradient all-reduce schedule for -stacks > 1: ring|tree"),
	}
}

// options returns the exploration the flags select: branch-and-bound
// with every optimization its flag leaves on, or with -exhaustive plain
// search over every candidate.
func (f exploreFlags) options() (batch.DSEOptions, error) {
	sched, err := nn.ParseAllReduceKind(*f.allreduce)
	if err != nil {
		return batch.DSEOptions{}, err
	}
	opt := !*f.exhaustive
	return batch.DSEOptions{Prune: opt, Surrogate: *f.surrogate && opt, Delta: *f.delta && opt,
		DeepDelta: *f.deep && opt, Calibrate: *f.calibrate && opt, Confidence: *f.confidence && opt,
		Stacks: *f.stacks, AllReduce: sched}, nil
}

func main() {
	model := flag.String("model", "VGG-19", "model for the unit-budget performance sweep")
	dse := flag.Bool("dse", false, "explore the thermally-capped candidate space for every CNN (branch-and-bound)")
	grid := flag.String("grid", "paper", "candidate grid for -dse: paper, large, xl, or xl-verify")
	explore := newExploreFlags(flag.CommandLine)
	loadScenario := cliutil.ScenarioFlag(flag.CommandLine)
	applyCache := cliutil.CacheFlags(flag.CommandLine)
	startProfile := cliutil.ProfileFlags(flag.CommandLine)
	flag.Parse()

	applyCache()
	defer startProfile()()
	dopts, err := explore.options()
	if err != nil {
		fail(err)
	}

	// -scenario explores the candidate grid for the scenario's models,
	// under the scenario's (uniform) stacks/allreduce axes.
	if plan, err := loadScenario(); err != nil {
		fail(err)
	} else if plan != nil {
		models, planStacks, planSched, err := scenarioDSEInputs(plan)
		if err != nil {
			fail(err)
		}
		dopts.Stacks, dopts.AllReduce = planStacks, planSched
		if err := runDSE(*grid, models, dopts); err != nil {
			fail(err)
		}
		return
	}
	if *dse {
		if err := runDSE(*grid, nn.CNNModelNames(), dopts); err != nil {
			fail(err)
		}
		return
	}
	modelName, err := heteropim.ParseModel(*model)
	if err != nil {
		fail(err)
	}

	stack, err := hmc.New(hw.PaperStack(1))
	if err != nil {
		fail(err)
	}

	// 1. Thermal exploration: how many units fit under the DRAM cap?
	tt := &report.Table{
		Title:   "Thermal design-space exploration (HotSpot-substitute)",
		Columns: []string{"Freq", "Max units under 85C", "Paper budget"},
	}
	for _, scale := range []float64{1, 2, 4} {
		units, err := thermal.MaxUnitsUnderCap(stack, thermal.DRAMThermalCap, scale)
		if err != nil {
			fail(err)
		}
		note := ""
		if scale == 1 {
			note = "444"
		}
		tt.AddRow(fmt.Sprintf("%gx", scale), fmt.Sprintf("%d", units), note)
	}
	tt.Notes = append(tt.Notes,
		"at 1x the cap reproduces the paper's 444-unit budget; the 2x/4x PLL points need derating or better cooling")
	fmt.Println(tt.String())

	// 2. Placement policy margin.
	spec := hw.PaperFixedPIM(hw.PaperFixedUnits)
	thermalPl, err := pim.ThermalPlacement(stack, hw.PaperFixedUnits)
	if err != nil {
		fail(err)
	}
	uniformPl, err := pim.UniformPlacement(stack, hw.PaperFixedUnits)
	if err != nil {
		fail(err)
	}
	tThermal, err := thermal.PlacementMaxTemp(stack, thermalPl, spec, 1)
	if err != nil {
		fail(err)
	}
	tUniform, err := thermal.PlacementMaxTemp(stack, uniformPl, spec, 1)
	if err != nil {
		fail(err)
	}
	pt := &report.Table{
		Title:   "Placement policy thermal margin (444 units, 1x)",
		Columns: []string{"Placement", "Hottest bank"},
	}
	pt.AddRow("thermal-aware (paper)", fmt.Sprintf("%.1fC", tThermal))
	pt.AddRow("uniform", fmt.Sprintf("%.1fC", tUniform))
	fmt.Println(pt.String())

	// 3. Performance effect of the unit budget.
	st := &report.Table{
		Title:   fmt.Sprintf("Unit-budget performance sweep (%s)", modelName),
		Columns: []string{"Units", "Step", "Energy", "EDP", "Util"},
	}
	base := heteropim.DefaultHardware(heteropim.ConfigHeteroPIM)
	budgets := []int{111, 222, 444, 888}
	results, err := runner.Map(context.Background(), len(budgets), 0,
		func(_ context.Context, i int) (heteropim.Result, error) {
			hc, err := base.WithFixedUnits(budgets[i])
			if err != nil {
				return heteropim.Result{}, err
			}
			return heteropim.RunOnHardware(hc, modelName)
		})
	if err != nil {
		fail(err)
	}
	for i, units := range budgets {
		r := results[i]
		st.AddRow(fmt.Sprintf("%d", units),
			report.Seconds(r.StepTime), report.Joules(r.Energy),
			fmt.Sprintf("%.3g", r.EDP), report.Percent(r.FixedUtilization))
	}
	fmt.Println(st.String())
	cs := heteropim.SimulationCacheStats()
	fmt.Printf("simcache: hits=%d misses=%d\n", cs.Hits, cs.Misses)
}
