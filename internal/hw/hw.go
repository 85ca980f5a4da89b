// Package hw defines the hardware description types shared by every
// substrate in the heterogeneous-PIM simulator: clock frequencies,
// processor and memory specifications, and the concrete configurations
// evaluated in the MICRO 2018 paper (Table IV and Section IV-D).
//
// All times are float64 seconds, all energies float64 joules, all powers
// float64 watts, all rates float64 per-second quantities. Using plain SI
// float64 units keeps the roofline arithmetic in the device models free
// of conversion bugs.
package hw

import "fmt"

// Hz is a clock or event frequency in cycles per second.
type Hz = float64

// Common frequency multiples.
const (
	KHz Hz = 1e3
	MHz Hz = 1e6
	GHz Hz = 1e9
)

// BytesPerSec is a bandwidth in bytes per second.
type BytesPerSec = float64

// Convenience bandwidth multiples (SI, matching vendor datasheets).
const (
	KBps BytesPerSec = 1e3
	MBps BytesPerSec = 1e6
	GBps BytesPerSec = 1e9
)

// FlopsPerSec is arithmetic throughput in FP32 operations per second.
type FlopsPerSec = float64

// Seconds is a duration or point in simulated time.
type Seconds = float64

// Joules is an amount of energy.
type Joules = float64

// Watts is a power draw.
type Watts = float64

// CPUSpec describes the host processor (paper Table IV: Intel Xeon
// E5-2630 v3, 8 cores at 2.4 GHz, 16 GB DDR4).
type CPUSpec struct {
	Name  string
	Cores int
	Freq  Hz
	// FlopsPerCycle is the per-core FP32 throughput per cycle assuming
	// the vector units are busy (AVX2 FMA: 16 FP32 FLOPs/cycle).
	FlopsPerCycle float64
	// MemBandwidth is the sustained main-memory bandwidth available to
	// the cores (4-channel DDR4-1866 on the E5-2630 v3 platform).
	MemBandwidth BytesPerSec
	// DynamicPower is the package dynamic power when training
	// (measured with VTune in the paper; we adopt a TDP-derived value).
	DynamicPower Watts
}

// Peak returns the aggregate peak FP32 throughput of the CPU.
func (c CPUSpec) Peak() FlopsPerSec {
	return float64(c.Cores) * c.Freq * c.FlopsPerCycle
}

// GPUSpec describes the discrete GPU baseline (paper Table IV: NVIDIA
// GeForce GTX 1080 Ti, 28 SMs x 128 CUDA cores at 1.5 GHz, 11 GB GDDR5X).
type GPUSpec struct {
	Name       string
	SMs        int
	CoresPerSM int
	Freq       Hz
	// MemBandwidth is device-memory bandwidth (GDDR5X, 484 GB/s).
	MemBandwidth BytesPerSec
	// HostLinkBandwidth is the PCIe 3.0 x16 host link used for
	// minibatch and parameter transfers.
	HostLinkBandwidth BytesPerSec
	// DynamicPower is the board dynamic power while training.
	DynamicPower Watts
	// KernelLaunchOverhead is the fixed host-side cost of dispatching
	// one kernel/operation to the GPU.
	KernelLaunchOverhead Seconds
}

// Peak returns aggregate peak FP32 throughput (2 FLOPs/core/cycle FMA).
func (g GPUSpec) Peak() FlopsPerSec {
	return float64(g.SMs*g.CoresPerSM) * g.Freq * 2
}

// StackSpec describes the 3D die-stacked memory (HMC 2.0; Section V-A:
// 312.5 MHz baseline frequency, 32 banks where a bank is a vertical slice
// of the stack).
type StackSpec struct {
	Name string
	// Banks is the number of vertical bank slices (32 in the paper).
	Banks int
	// Rows and Cols give the logical 2D arrangement of the banks on the
	// logic die, used by the thermal-aware placement policy (8x4).
	Rows, Cols int
	// Freq is the stack working frequency, also the frequency of the
	// heterogeneous PIM logic (312.5 MHz at 1x).
	Freq Hz
	// FreqScale multiplies Freq for the frequency-scaling studies
	// (Section VI-D: 1x, 2x, 4x via a PLL).
	FreqScale float64
	// InternalBandwidth is the aggregate bandwidth the logic layer sees
	// from the DRAM dies through the TSVs (HMC 2.0 internal: 320 GB/s).
	InternalBandwidth BytesPerSec
	// ExternalBandwidth is what the host CPU sees over the serial links.
	ExternalBandwidth BytesPerSec
	// RowAccessEnergyPerByte is DRAM array access energy (pJ/byte scale).
	RowAccessEnergyPerByte Joules
	// TSVEnergyPerByte is the cost of moving a byte through the stack
	// to the logic layer (PIM-side accesses pay this only).
	TSVEnergyPerByte Joules
	// LinkEnergyPerByte is the cost of moving a byte over the external
	// SerDes links to the host (host-side accesses pay this too).
	LinkEnergyPerByte Joules
}

// EffectiveFreq returns the scaled stack/PIM frequency.
func (s StackSpec) EffectiveFreq() Hz {
	scale := s.FreqScale
	if scale == 0 {
		scale = 1
	}
	return s.Freq * scale
}

// ScaledInternalBandwidth returns the bandwidth PIM logic sees from the
// DRAM dies. The Section VI-D PLL scales the logic and TSV clocks, but
// the DRAM array timings do not follow it, so sustained internal
// bandwidth stays at the array limit — this is what makes the Fig. 11
// frequency-scaling gains saturate for bandwidth-hungry models.
func (s StackSpec) ScaledInternalBandwidth() BytesPerSec {
	return s.InternalBandwidth
}

// FixedPIMSpec describes the pool of fixed-function PIMs: pairs of 32-bit
// floating-point multipliers and adders on the logic die (Section IV-D:
// 444 pairs across 32 banks, more on edge/corner banks).
type FixedPIMSpec struct {
	// Units is the total number of multiplier+adder pairs (444).
	Units int
	// FlopsPerUnitCycle: each pair retires one multiply and one add per
	// cycle when streaming (2 FLOPs/cycle/unit).
	FlopsPerUnitCycle float64
	// SpawnOverhead is the cost of launching one small kernel onto a
	// group of fixed-function PIMs from the host.
	SpawnOverhead Seconds
	// HostSyncOverhead is one host<->PIM synchronization (completion
	// check driven through the programmable PIM, Section III-B).
	HostSyncOverhead Seconds
	// PIMSyncOverhead is one PIM<->PIM synchronization through global
	// variables in main memory (much cheaper than involving the host).
	PIMSyncOverhead Seconds
	// DynamicPowerPerUnit is the active power of one mul+add pair at 1x.
	DynamicPowerPerUnit Watts
}

// ProgPIMSpec describes the programmable PIM (Section IV-D: one ARM
// Cortex-A9-class processor, four 2 GHz in-order cores).
type ProgPIMSpec struct {
	// Processors is the number of programmable PIM processors (1 in the
	// baseline; 1/4/16 in the Fig. 12 scaling study).
	Processors        int
	CoresPerProcessor int
	Freq              Hz
	// FlopsPerCycle per core: in-order dual-issue with a simple FPU.
	FlopsPerCycle float64
	// KernelLaunchOverhead is the host-side cost of offloading a kernel
	// to the programmable PIM.
	KernelLaunchOverhead Seconds
	// DynamicPowerPerProcessor is active power of one 4-core processor.
	DynamicPowerPerProcessor Watts
}

// Peak returns aggregate peak FP32 throughput of all programmable PIMs.
func (p ProgPIMSpec) Peak() FlopsPerSec {
	return float64(p.Processors*p.CoresPerProcessor) * p.Freq * p.FlopsPerCycle
}

// InterStackLinkSpec describes the point-to-point link between HMC
// stacks in a multi-stack system (NeuroTrainer-style arrays of memory
// modules). Each stack trains on a shard of the minibatch and the
// gradients cross these links during the all-reduce, so the link's
// bandwidth and latency bound the synchronization phase of every
// training step.
type InterStackLinkSpec struct {
	// Bandwidth is the sustained per-direction bandwidth of one link
	// (SerDes/NVLink-class).
	Bandwidth BytesPerSec
	// Latency is the fixed per-message cost of a transfer over the link
	// (serialization + hop latency).
	Latency Seconds
	// EnergyPerByte is the cost of moving one byte across the link.
	EnergyPerByte Joules
}

// SystemConfig is a full simulated platform: the host, the optional GPU,
// the memory stack and the PIM complement.
type SystemConfig struct {
	Name     string
	CPU      CPUSpec
	GPU      GPUSpec
	Stack    StackSpec
	FixedPIM FixedPIMSpec
	ProgPIM  ProgPIMSpec
	// Link is the inter-stack interconnect used when a run shards the
	// minibatch across multiple stacks (core.Options.Stacks > 1). Single-stack
	// runs never touch it.
	Link InterStackLinkSpec
	// DRAMBackgroundPower is the static+refresh power of the stack.
	DRAMBackgroundPower Watts
}

// Validate reports configuration errors early rather than letting them
// surface as NaNs deep inside the simulator.
func (c SystemConfig) Validate() error {
	if c.CPU.Cores <= 0 || c.CPU.Freq <= 0 {
		return fmt.Errorf("hw: config %q: CPU must have positive cores and frequency", c.Name)
	}
	if c.Stack.Banks <= 0 {
		return fmt.Errorf("hw: config %q: stack must have banks", c.Name)
	}
	if c.Stack.Rows*c.Stack.Cols != c.Stack.Banks {
		return fmt.Errorf("hw: config %q: bank grid %dx%d does not cover %d banks",
			c.Name, c.Stack.Rows, c.Stack.Cols, c.Stack.Banks)
	}
	if c.FixedPIM.Units < 0 {
		return fmt.Errorf("hw: config %q: negative fixed-function PIM units", c.Name)
	}
	if c.ProgPIM.Processors < 0 {
		return fmt.Errorf("hw: config %q: negative programmable PIM processors", c.Name)
	}
	if c.Link.Bandwidth < 0 || c.Link.Latency < 0 || c.Link.EnergyPerByte < 0 {
		return fmt.Errorf("hw: config %q: inter-stack link parameters must be non-negative", c.Name)
	}
	return nil
}

// ValidateMultiStack checks the pieces a sharded multi-stack run needs
// on top of Validate: a usable inter-stack link.
func (c SystemConfig) ValidateMultiStack() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Link.Bandwidth <= 0 {
		return fmt.Errorf("hw: config %q: multi-stack run needs a positive inter-stack link bandwidth", c.Name)
	}
	return nil
}
