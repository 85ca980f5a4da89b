package core

import (
	"fmt"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/sim"
)

// HeteroOptions returns the full paper runtime: profiling-based
// selection, recursive kernels, and the operation pipeline.
func HeteroOptions() Options {
	return Options{RC: true, OP: true, UseSelection: true}
}

// Run simulates steady-state training of a model on one of the five
// evaluated platform configurations (Section VI) at the given PIM/stack
// frequency scale.
func Run(kind hw.ConfigKind, src nn.Source, freqScale float64) (Result, error) {
	cfg := hw.PaperConfigScaled(kind, freqScale)
	return RunOn(kind, src, cfg)
}

// RunOn is Run with an explicit (possibly customized) configuration.
func RunOn(kind hw.ConfigKind, src nn.Source, cfg hw.SystemConfig) (Result, error) {
	return RunOnWithCollector(kind, src, cfg, nil)
}

// RunOnWithCollector is RunOn with the observability layer attached:
// the run's task spans, queue depths and scheduling counters are
// delivered to c (nil behaves exactly like RunOn — attaching a
// collector never changes simulation results).
func RunOnWithCollector(kind hw.ConfigKind, src nn.Source, cfg hw.SystemConfig, c sim.Collector) (Result, error) {
	switch kind {
	case hw.ConfigCPU:
		return RunCPU(src, cfg, c), nil
	case hw.ConfigGPU:
		return RunGPU(src, cfg, c), nil
	}
	opts, ok := PIMOptionsFor(kind)
	if !ok {
		return Result{}, fmt.Errorf("core: unknown configuration %v", kind)
	}
	opts.Collector = c
	return RunPIM(src, cfg, opts)
}

// PIMOptionsFor maps a PIM platform kind to its executor options; ok is
// false for the non-PIM kinds. It is the only platform-to-options
// table: RunOn, RunMulti and the public Simulate all start from it.
func PIMOptionsFor(kind hw.ConfigKind) (Options, bool) {
	switch kind {
	case hw.ConfigProgrPIM:
		// No runtime scheduling: every op runs on the programmable
		// cores, as wide as its parallelism allows, no pipeline.
		return Options{NoCPUFallback: true, WideProgOps: true}, true
	case hw.ConfigFixedPIM:
		// Offloadable ops on the fixed-function pool, everything else
		// (and all residual phases) on the CPU; no runtime scheduling.
		return Options{}, true
	case hw.ConfigHeteroPIM:
		return HeteroOptions(), true
	default:
		return Options{}, false
	}
}
