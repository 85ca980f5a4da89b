package core

import (
	"encoding/json"
	"math"

	"heteropim/internal/device"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/sim"
)

// emitSerialSpan feeds one serially-executed op to a collector as a
// completed span (the serial executors have no event engine; their
// clock is the running sum of op durations).
func emitSerialSpan(c sim.Collector, track, name string, start, dur hw.Seconds) {
	if c == nil {
		return
	}
	c.TaskStart(sim.Task{Track: track, Name: name, Kind: "op", Start: start})
	c.TaskEnd(sim.Task{Track: track, Name: name, Kind: "op", Start: start, End: start + dur})
}

// Per-operation framework dispatch overhead on the host (TensorFlow
// executor bookkeeping), charged by the serial executors.
const cpuDispatchOverhead hw.Seconds = 2e-6

// splitWork attributes an op's roofline time: the compute-limited part
// is "operation time", the bandwidth-stall excess is "data movement".
func splitWork(w device.Work) (operation, dataMove hw.Seconds) {
	t := w.Time()
	op := math.Min(w.Compute, t)
	return op, t - op
}

// RunCPU executes every training operation on the host CPU, one
// training step, serially (the paper's CPU baseline).
func RunCPU(g *nn.Graph, cfg hw.SystemConfig) Result {
	return RunCPUWithCollector(g, cfg, nil)
}

// RunCPUWithCollector is RunCPU with instrumentation: each op becomes a
// span on the "cpu" track at its serial position in the step.
// Uninstrumented calls go through the result cache; instrumented ones
// bypass it (see RunPIM).
func RunCPUWithCollector(g *nn.Graph, cfg hw.SystemConfig, c sim.Collector) Result {
	if c == nil && !resultCacheOff.Load() {
		fp := fingerprintRun("cpu", g, cfg, Options{}, nil)
		res, _ := cachedResult(fp, func() (Result, error) { return runCPUSerial(g, cfg, nil), nil })
		return res
	}
	return runCPUSerial(g, cfg, c)
}

// runCPUSerial is the live run behind RunCPU/RunCPUWithCollector.
func runCPUSerial(g *nn.Graph, cfg hw.SystemConfig, c sim.Collector) Result {
	res := Result{Config: cfg, Model: g.Model, Steps: 1}
	var clock hw.Seconds
	for _, op := range g.Ops {
		p := nn.ProfileFor(op.Type)
		w := device.CPUOp(op, &p, cfg.CPU)
		opT, dmT := splitWork(w)
		res.Breakdown.Operation += opT
		res.Breakdown.DataMovement += dmT
		res.Breakdown.Sync += cpuDispatchOverhead
		res.Usage.CPUBusy += w.Time()
		res.Usage.HostBytes += op.Bytes
		res.CPUOps++
		dur := w.Time() + cpuDispatchOverhead
		emitSerialSpan(c, "cpu", op.Name, clock, dur)
		clock += dur
	}
	res.StepTime = res.Breakdown.Total()
	return res
}

// gpuEff combines the paper's reported per-model GPU utilization with
// the per-model calibration factor (DESIGN.md §2).
func gpuEff(g *nn.Graph) float64 {
	f := g.GPUEffFactor
	if f == 0 {
		f = 1
	}
	return g.GPUUtilization * f
}

// RunGPU executes every training operation on the GPU, one training
// step, serially, charging kernel launches and the unhidden host<->GPU
// transfer (the paper's GPU baseline; Section VI-A's data-movement bars
// for GPU are exactly the unhidden transfer time).
func RunGPU(g *nn.Graph, cfg hw.SystemConfig) Result {
	return RunGPUWithCollector(g, cfg, nil)
}

// RunGPUWithCollector is RunGPU with instrumentation: kernels become
// spans on the "gpu" track, the unhidden host<->GPU transfer one span
// on the "pcie" track. Uninstrumented calls go through the result
// cache; instrumented ones bypass it (see RunPIM).
func RunGPUWithCollector(g *nn.Graph, cfg hw.SystemConfig, c sim.Collector) Result {
	if c == nil && !resultCacheOff.Load() {
		fp := fingerprintRun("gpu", g, cfg, Options{}, nil)
		res, _ := cachedResult(fp, func() (Result, error) { return runGPUSerial(g, cfg, nil), nil })
		return res
	}
	return runGPUSerial(g, cfg, c)
}

// runGPUSerial is the live run behind RunGPU/RunGPUWithCollector.
func runGPUSerial(g *nn.Graph, cfg hw.SystemConfig, c sim.Collector) Result {
	res := Result{Config: cfg, Model: g.Model, Steps: 1}
	var clock hw.Seconds
	for _, op := range g.Ops {
		p := nn.ProfileFor(op.Type)
		w := device.GPUOp(op, &p, cfg.GPU, gpuEff(g))
		res.Breakdown.Operation += w.Time()
		res.Breakdown.Sync += cfg.GPU.KernelLaunchOverhead
		res.Usage.GPUBusy += w.Time()
		res.Usage.GPUBytes += op.Bytes
		dur := w.Time() + cfg.GPU.KernelLaunchOverhead
		emitSerialSpan(c, "gpu", op.Name, clock, dur)
		clock += dur
	}
	res.GPUUtilization = g.GPUUtilization
	transfer := device.GPUStepTransferTime(g, cfg.GPU)
	res.Breakdown.DataMovement = transfer
	res.Usage.LinkBytes = device.GPUStepTransferBytes(g)
	res.Usage.CPUBusy = transfer // the host drives the transfers
	if c != nil && transfer > 0 {
		c.TaskStart(sim.Task{Track: "pcie", Name: "host<->gpu transfer", Kind: "transfer", Start: clock})
		c.TaskEnd(sim.Task{Track: "pcie", Name: "host<->gpu transfer", Kind: "transfer", Start: clock, End: clock + transfer})
	}
	res.StepTime = res.Breakdown.Total()
	return res
}

// RunNeurocube executes every training operation on the Neurocube PE
// array, serially with a per-op launch (its execution model is static:
// no dynamic runtime scheduling — Section VI-C). Runs go through the
// result cache, with the spec folded into the fingerprint.
func RunNeurocube(g *nn.Graph, spec device.NeurocubeSpec, cfg hw.SystemConfig) Result {
	if !resultCacheOff.Load() {
		if specJSON, err := json.Marshal(spec); err == nil {
			fp := fingerprintRun("neurocube", g, cfg, Options{}, specJSON)
			res, _ := cachedResult(fp, func() (Result, error) { return runNeurocubeSerial(g, spec, cfg), nil })
			return res
		}
	}
	return runNeurocubeSerial(g, spec, cfg)
}

// runNeurocubeSerial is the live run behind RunNeurocube.
func runNeurocubeSerial(g *nn.Graph, spec device.NeurocubeSpec, cfg hw.SystemConfig) Result {
	res := Result{Config: cfg, Model: g.Model, Steps: 1}
	res.Config.Name = "Neurocube"
	for _, op := range g.Ops {
		w := device.NeurocubeOp(op, spec)
		opT, dmT := splitWork(w)
		res.Breakdown.Operation += opT
		res.Breakdown.DataMovement += dmT
		res.Breakdown.Sync += spec.LaunchOverhead
		res.Usage.NeurocubeBusy += w.Time()
		res.Usage.PIMBytes += op.Bytes
		res.OffloadedOps++
	}
	res.StepTime = res.Breakdown.Total()
	return res
}
