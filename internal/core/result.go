package core

import "heteropim/internal/hw"

// Breakdown splits a step's wall-clock time the way Fig. 8 does.
type Breakdown struct {
	// Operation is computation time on CPU, GPU or PIMs.
	Operation hw.Seconds
	// DataMovement is time stalled moving data (bandwidth-bound excess,
	// plus host<->GPU transfers for the GPU platform).
	DataMovement hw.Seconds
	// Sync is synchronization and kernel launch/spawn time.
	Sync hw.Seconds
}

// Total returns the summed breakdown.
func (b Breakdown) Total() hw.Seconds { return b.Operation + b.DataMovement + b.Sync }

// scale multiplies every component by f.
func (b Breakdown) scale(f float64) Breakdown {
	return Breakdown{Operation: b.Operation * f, DataMovement: b.DataMovement * f, Sync: b.Sync * f}
}

// Usage captures the resource consumption the energy model needs.
type Usage struct {
	// CPUBusy / GPUBusy are busy seconds of the host and GPU.
	CPUBusy, GPUBusy hw.Seconds
	// ProgBusy is the summed busy time over programmable PIM processors.
	ProgBusy hw.Seconds
	// FixedBusyUnitSeconds integrates busy fixed-function units over time.
	FixedBusyUnitSeconds float64
	// NeurocubeBusy is busy time of the Neurocube PE array.
	NeurocubeBusy hw.Seconds
	// HostBytes is DRAM traffic over the external links (CPU path).
	HostBytes float64
	// PIMBytes is DRAM traffic through the TSVs (PIM path).
	PIMBytes float64
	// GPUBytes is GDDR traffic on the GPU board.
	GPUBytes float64
	// LinkBytes is host<->GPU PCIe traffic.
	LinkBytes float64
	// InterStackBytes is gradient traffic over the stack-to-stack links
	// during the all-reduce (multi-stack runs only).
	InterStackBytes float64
}

// add accumulates another usage.
func (u *Usage) add(o Usage) {
	u.CPUBusy += o.CPUBusy
	u.GPUBusy += o.GPUBusy
	u.ProgBusy += o.ProgBusy
	u.FixedBusyUnitSeconds += o.FixedBusyUnitSeconds
	u.NeurocubeBusy += o.NeurocubeBusy
	u.HostBytes += o.HostBytes
	u.PIMBytes += o.PIMBytes
	u.GPUBytes += o.GPUBytes
	u.LinkBytes += o.LinkBytes
	u.InterStackBytes += o.InterStackBytes
}

// Result is the outcome of simulating steady-state training of one model
// on one platform configuration.
type Result struct {
	Config hw.SystemConfig
	Model  string
	// StepTime is the steady-state wall-clock time of one training step.
	StepTime hw.Seconds
	// Breakdown attributes StepTime to Fig. 8's three categories
	// (components sum to StepTime).
	Breakdown Breakdown
	// Usage is per-step resource consumption (averaged over steps).
	Usage Usage
	// FixedUtilization is the fixed-function pool's busy-unit share of
	// the makespan (Fig. 15).
	FixedUtilization float64
	// OffloadedOps counts operations placed on PIMs per step.
	OffloadedOps int
	// CPUOps counts operations that ran on the host per step.
	CPUOps int
	// Steps is how many steady-state steps were simulated.
	Steps int
	// GPUUtilization is the model's §V-D utilization (GPU runs only);
	// the energy model scales board power with it.
	GPUUtilization float64
	// Stacks is the number of HMC stacks the step was sharded across.
	// Zero (the single-stack executor leaves it unset) and 1 both mean
	// the paper's single-stack system.
	Stacks int
	// AllReduce is the gradient synchronization schedule of a
	// multi-stack run ("ring" or "tree"; empty for single-stack).
	AllReduce string
	// AllReduceTime is the per-step gradient all-reduce time included
	// in StepTime (multi-stack runs only).
	AllReduceTime hw.Seconds
	// StackStepTime is the slowest stack's compute step time before the
	// all-reduce (multi-stack runs only; StepTime = StackStepTime +
	// AllReduceTime).
	StackStepTime hw.Seconds
	// StackMaxTemp is the hottest-bank steady-state temperature of one
	// stack under the run's placement, in deg C (multi-stack runs with
	// a fixed-function pool; every stack is identical so one number
	// covers all of them).
	StackMaxTemp float64
}

// Throughput returns training steps per second.
func (r Result) Throughput() float64 {
	if r.StepTime <= 0 {
		return 0
	}
	return 1 / r.StepTime
}
