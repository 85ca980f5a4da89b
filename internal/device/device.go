// Package device holds the analytic (roofline) execution models of every
// compute resource the paper evaluates: the host CPU, the GPU baseline
// (with the per-model utilizations of Section V-D and the PCIe transfer
// model), the programmable PIM, the fixed-function PIM pool, and the
// Neurocube comparison point (Section VI-C).
//
// Each model reduces one operation to a Work{compute-limited, bandwidth-
// limited} pair; the executors in internal/core combine these with
// launch/synchronization overheads and, for the PIM pool, with dynamic
// unit grants inside the discrete-event simulator.
//
// The per-op models take the op's nn.Profile already looked up (p must
// be nn.ProfileFor(op.Type)): the simulator and the DSE bound price the
// same op many times per run, so they look each profile up once.
package device

import (
	"math"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// Work is the roofline decomposition of one operation (or one phase of
// an operation) on a device.
type Work struct {
	// Compute is the compute-limited execution time.
	Compute hw.Seconds
	// Memory is the bandwidth-limited execution time.
	Memory hw.Seconds
}

// Time is the roofline execution time: max of the two limits.
func (w Work) Time() hw.Seconds { return math.Max(w.Compute, w.Memory) }

// MemBound reports whether the op is bandwidth limited on this device.
func (w Work) MemBound() bool { return w.Memory > w.Compute }

// safeDiv guards the many rate divisions: zero or negative denominators
// mean "this device cannot do that work" and yield +Inf, which max()
// then surfaces loudly instead of silently returning 0.
func safeDiv(num, den float64) float64 {
	if num <= 0 {
		return 0
	}
	if den <= 0 {
		return math.Inf(1)
	}
	return num / den
}

// CPUOp models a whole operation on the host CPU.
func CPUOp(op *nn.Op, p *nn.Profile, cpu hw.CPUSpec) Work {
	return Work{
		Compute: safeDiv(op.TotalFlops(), cpu.Peak()*p.CPUComputeEff),
		Memory:  safeDiv(op.Bytes, cpu.MemBandwidth*p.CPUBwEff),
	}
}

// CPUResidual models only the non-decomposable phases of an op on the
// CPU (the Fixed-PIM-only baseline runs these phases host-side).
func CPUResidual(op *nn.Op, p *nn.Profile, cpu hw.CPUSpec) Work {
	return Work{
		Compute: safeDiv(p.ResidualFlops(op), cpu.Peak()*p.CPUComputeEff),
		Memory:  safeDiv(op.Bytes*residualByteFrac, cpu.MemBandwidth*p.CPUBwEff),
	}
}

// GPUOp models a whole operation on the GPU. util is the model's average
// GPU utilization from Section V-D; the launch overhead is charged by
// the executor, and host<->device transfers are charged per step.
func GPUOp(op *nn.Op, p *nn.Profile, gpu hw.GPUSpec, util float64) Work {
	if util <= 0 {
		util = 1
	}
	return Work{
		Compute: safeDiv(op.TotalFlops(), gpu.Peak()*util*p.GPUComputeEff),
		Memory:  safeDiv(op.Bytes, gpu.MemBandwidth*p.GPUBwEff),
	}
}

// GPUStepTransferTime is the per-step host<->device transfer time that
// cannot be hidden behind compute: the minibatch itself plus the
// unhidden fraction of the activation working set (Section VI-A's
// data-movement bars; large-working-set models hide less).
func GPUStepTransferTime(g *nn.Graph, gpu hw.GPUSpec) hw.Seconds {
	bytes := g.InputBytes + g.GPUUnhiddenTransferFrac*g.ActivationBytes
	return safeDiv(bytes, gpu.HostLinkBandwidth)
}

// GPUStepTransferBytes returns the same volume in bytes (for energy).
func GPUStepTransferBytes(g *nn.Graph) float64 {
	return g.InputBytes + g.GPUUnhiddenTransferFrac*g.ActivationBytes
}

// residualByteFrac is the share of an op's traffic attributed to its
// non-decomposable phases when it is offloaded (the Fig. 6 phases touch
// index structures and a slice of the data, not the whole tensor).
const residualByteFrac = 0.10

// decomposableByteFrac is the complementary share streamed by the
// fixed-function units.
const decomposableByteFrac = 1 - residualByteFrac

// ProgOp models a whole operation on `processors` programmable-PIM
// processors (bounded by the op's intrinsic parallelism).
func ProgOp(op *nn.Op, p *nn.Profile, spec hw.ProgPIMSpec, processors int, stack hw.StackSpec) Work {
	usable := nn.ProgParallelismFor(op.Type)
	if processors < usable {
		usable = processors
	}
	if usable < 1 {
		usable = 1
	}
	perProc := float64(spec.CoresPerProcessor) * spec.Freq * spec.FlopsPerCycle
	return Work{
		Compute: safeDiv(op.TotalFlops(), float64(usable)*perProc*p.ProgComputeEff),
		Memory:  safeDiv(op.Bytes, stack.ScaledInternalBandwidth()*p.ProgBwEff),
	}
}

// ProgResidual models only the non-decomposable phases on one
// programmable-PIM processor (the recursive-kernel host side, Fig. 6).
// Residual phases are simple streaming loops, so they run at a higher
// sustained efficiency than whole complex ops.
func ProgResidual(op *nn.Op, p *nn.Profile, spec hw.ProgPIMSpec, stack hw.StackSpec) Work {
	perProc := float64(spec.CoresPerProcessor) * spec.Freq * spec.FlopsPerCycle
	const residualEff = 0.5
	return Work{
		Compute: safeDiv(p.ResidualFlops(op), perProc*residualEff),
		Memory:  safeDiv(op.Bytes*residualByteFrac, stack.ScaledInternalBandwidth()*p.ProgBwEff),
	}
}

// FixedUnitRate is the per-unit FLOP rate of the fixed-function pool at
// the (possibly frequency-scaled) stack clock, after the op's sustained
// efficiency.
func FixedUnitRate(p *nn.Profile, spec hw.FixedPIMSpec, stack hw.StackSpec) hw.FlopsPerSec {
	if !p.FixedEligible {
		return 0
	}
	return spec.FlopsPerUnitCycle * stack.EffectiveFreq() * p.FixedComputeEff
}

// FixedBandwidth is the stack's internal bandwidth as the op's
// fixed-function stream sustains it.
func FixedBandwidth(p *nn.Profile, stack hw.StackSpec) hw.BytesPerSec {
	return stack.ScaledInternalBandwidth() * p.FixedBwEff
}

// fixedStreamReuse estimates how many FLOPs the fixed-function units
// extract per operand byte fetched through the TSVs: the per-bank
// buffering (Section IV-D) reuses each loaded input across the filter
// taps, so reuse grows with the dot-product granule and is clamped to
// the buffer capacity.
func fixedStreamReuse(op *nn.Op) float64 {
	taps := float64(op.UnitGranule+1) / 2
	if taps < 6 {
		taps = 6
	}
	if taps > 32 {
		taps = 32
	}
	return taps
}

// FixedWork returns the decomposable work volume (flops, bytes) an
// offloaded op streams through the fixed-function units. The byte
// volume is the larger of the op's DRAM-traffic share and the PIM-side
// streaming traffic (4 bytes per FLOP divided by the tap reuse) — at
// high PLL multipliers the latter is what saturates the stack's
// internal bandwidth (Fig. 11).
func FixedWork(op *nn.Op, p *nn.Profile) (flops, bytes float64) {
	flops = p.DecomposableFlops(op)
	bytes = op.Bytes * decomposableByteFrac
	if stream := flops * 4 / fixedStreamReuse(op); stream > bytes {
		bytes = stream
	}
	return flops, bytes
}

// FixedSectionTime is the duration of executing `flops` of decomposable
// work (with its share of `bytes`) on `units` granted units, given the
// op's FixedUnitRate and FixedBandwidth. Both depend only on the op's
// profile and the hardware, so a caller pricing many sections of the
// same op computes them once.
func FixedSectionTime(flops, bytes float64, units int, unitRate hw.FlopsPerSec, bw hw.BytesPerSec) hw.Seconds {
	if units <= 0 {
		return math.Inf(1)
	}
	w := Work{
		Compute: safeDiv(flops, unitRate*float64(units)),
		Memory:  safeDiv(bytes, bw),
	}
	return w.Time()
}

// NeurocubeSpec parameterizes the Neurocube comparison point
// (Kim et al., ISCA 2016): programmable MAC-array processing elements,
// one per vault, in the logic layer of a 3D stack — no fixed-function
// complement and no dynamic runtime scheduling.
type NeurocubeSpec struct {
	PEs            int
	Freq           hw.Hz
	MACsPerPECycle float64
	InternalBW     hw.BytesPerSec
	// ComputeEff is the sustained fraction of peak on training ops.
	ComputeEff float64
	// LaunchOverhead is charged per operation (host-driven execution).
	LaunchOverhead hw.Seconds
	// DynamicPower of the PE array (the host CPU is accounted
	// separately, as in the paper's whole-system methodology).
	DynamicPower hw.Watts
}

// DefaultNeurocube returns the published configuration scaled to the
// same HMC-class stack: 16 PEs at 300 MHz with 8-wide MAC arrays.
func DefaultNeurocube() NeurocubeSpec {
	return NeurocubeSpec{
		PEs:            16,
		Freq:           300 * hw.MHz,
		MACsPerPECycle: 8,
		InternalBW:     240 * hw.GBps,
		ComputeEff:     0.55,
		LaunchOverhead: 6e-6,
		DynamicPower:   6.5,
	}
}

// Peak returns Neurocube's aggregate FLOP rate (2 FLOPs per MAC).
func (n NeurocubeSpec) Peak() hw.FlopsPerSec {
	return float64(n.PEs) * n.Freq * n.MACsPerPECycle * 2
}

// NeurocubeOp models one operation on Neurocube. Non-MAC-friendly ops
// (conditionals, scatter) run at a fraction of the array's efficiency.
func NeurocubeOp(op *nn.Op, spec NeurocubeSpec) Work {
	p := nn.ProfileFor(op.Type)
	eff := spec.ComputeEff
	if !p.FixedEligible {
		// The MAC arrays stall on control-heavy work; the embedded
		// controller handles it at a crawl.
		eff *= 0.15
	}
	return Work{
		Compute: safeDiv(op.TotalFlops(), spec.Peak()*eff),
		Memory:  safeDiv(op.Bytes, spec.InternalBW*0.7),
	}
}
