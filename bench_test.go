package heteropim

// The ablation benches of DESIGN.md §6: each sweeps one runtime knob on
// live (uncached) simulations and reports the simulated step time as a
// custom metric. The paper artifacts themselves are timed by the
// repository benchmark (bench/, the figures and sweep workloads).

import (
	"fmt"
	"testing"

	"heteropim/internal/core"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// benchStep simulates g under cfg and opts once per iteration, with the
// result cache off so every iteration runs live, and reports the
// simulated step time.
func benchStep(b *testing.B, g *nn.Graph, cfg hw.SystemConfig, opts core.Options) {
	b.Helper()
	prev := SetSimulationCache(false)
	b.Cleanup(func() { SetSimulationCache(prev) })
	var step float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunPIM(g, cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
		step = r.StepTime
	}
	b.ReportMetric(step, "sim-step-s")
}

// BenchmarkAblationXPercent sweeps the candidate-selection threshold.
func BenchmarkAblationXPercent(b *testing.B) {
	g := nn.VGG19()
	for _, x := range []float64{50, 70, 90, 99} {
		b.Run(fmt.Sprintf("x=%g", x), func(b *testing.B) {
			opts := core.HeteroOptions()
			opts.XPercent = x
			benchStep(b, g, hw.PaperConfig(hw.ConfigHeteroPIM), opts)
		})
	}
}

// BenchmarkAblationPlacement compares thermal vs uniform placement.
func BenchmarkAblationPlacement(b *testing.B) {
	g := nn.AlexNet()
	for _, name := range []string{"thermal", "uniform"} {
		b.Run(name, func(b *testing.B) {
			opts := core.HeteroOptions()
			opts.UniformPlacement = name == "uniform"
			benchStep(b, g, hw.PaperConfig(hw.ConfigHeteroPIM), opts)
		})
	}
}

// BenchmarkAblationPipelineDepth sweeps the OP pipeline depth.
func BenchmarkAblationPipelineDepth(b *testing.B) {
	g := nn.AlexNet()
	for _, depth := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			opts := core.HeteroOptions()
			opts.PipelineDepth = depth
			benchStep(b, g, hw.PaperConfig(hw.ConfigHeteroPIM), opts)
		})
	}
}

// BenchmarkAblationSyncCost sweeps the host-PIM synchronization cost
// that RC exists to remove.
func BenchmarkAblationSyncCost(b *testing.B) {
	g := nn.AlexNet()
	for _, mult := range []float64{0.5, 1, 2, 4} {
		b.Run(fmt.Sprintf("sync=%g", mult), func(b *testing.B) {
			cfg := hw.PaperConfig(hw.ConfigHeteroPIM)
			cfg.FixedPIM.HostSyncOverhead *= mult
			cfg.FixedPIM.SpawnOverhead *= mult
			opts := core.HeteroOptions()
			opts.RC = false // the sweep only matters without RC
			benchStep(b, g, cfg, opts)
		})
	}
}
