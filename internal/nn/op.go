// Package nn models NN training workloads the way the paper's profiling
// framework sees them: as dataflow graphs of operations, each with an
// analytic cost descriptor (multiplications, additions, other-ALU work,
// main-memory traffic, available fine-grained parallelism) derived from
// the network's layer shapes at the paper's batch sizes.
//
// The descriptors drive three things: the Table I profile (execution
// time and main-memory access shares on the CPU), the Fig. 2 four-class
// taxonomy, and the device roofline models in internal/device.
package nn

// OpType names a TensorFlow-style training operation.
type OpType string

// The operation vocabulary of the paper's profiles (Table I) plus the
// framework ops every step drags along.
const (
	OpConv2D               OpType = "Conv2D"
	OpConv2DBackpropFilter OpType = "Conv2DBackpropFilter"
	OpConv2DBackpropInput  OpType = "Conv2DBackpropInput"
	OpMatMul               OpType = "MatMul"
	OpBiasAdd              OpType = "BiasAdd"
	OpBiasAddGrad          OpType = "BiasAddGrad"
	OpRelu                 OpType = "Relu"
	OpReluGrad             OpType = "ReluGrad"
	OpMaxPool              OpType = "MaxPool"
	OpMaxPoolGrad          OpType = "MaxPoolGrad"
	OpApplyAdam            OpType = "ApplyAdam"
	OpSoftmax              OpType = "Softmax"
	OpCrossEntropy         OpType = "SoftmaxCrossEntropyWithLogits"
	OpMul                  OpType = "Mul"
	OpAdd                  OpType = "Add"
	OpSlice                OpType = "Slice"
	OpReshape              OpType = "Reshape"
	OpSum                  OpType = "Sum"
	OpMean                 OpType = "Mean"
	OpTranspose            OpType = "Transpose"
	OpPad                  OpType = "Pad"
	OpConcat               OpType = "ConcatV2"
	OpBatchNorm            OpType = "FusedBatchNorm"
	OpBatchNormGrad        OpType = "FusedBatchNormGrad"
	OpTanh                 OpType = "Tanh"
	OpSigmoid              OpType = "Sigmoid"
	OpLSTMCell             OpType = "LSTMBlockCell"
	OpLSTMCellGrad         OpType = "LSTMBlockCellGrad"
	OpEmbeddingLookup      OpType = "GatherV2"
	OpEmbeddingGrad        OpType = "ScatterSub"
	OpNCELoss              OpType = "NCELoss"
	OpDropout              OpType = "Dropout"
	OpAvgPool              OpType = "AvgPool"
	OpAvgPoolGrad          OpType = "AvgPoolGrad"
)

// Class is the Fig. 2 four-way operation taxonomy.
type Class int

const (
	// Class1 is compute intensive but not memory intensive: it does not
	// have to be offloaded to PIMs, but can be when units idle.
	Class1 Class = 1
	// Class2 is both compute and memory intensive: the offload target.
	Class2 Class = 2
	// Class3 is memory intensive only ("unusual", e.g. Slice).
	Class3 Class = 3
	// Class4 is neither and does not affect training performance.
	Class4 Class = 4
)

// Profile is the per-operation-type behaviour model. Compute
// efficiencies are the sustained fraction of a device's peak FLOPs the
// op achieves; bandwidth efficiencies likewise for memory-bound phases.
// They encode what the paper measured with VTune (e.g. TensorFlow's CPU
// Conv2DBackpropFilter runs far below GEMM efficiency because of its
// strided access pattern).
type Profile struct {
	Type OpType
	// FixedEligible means the op's decomposable portion can execute on
	// the fixed-function multiplier/adder PIMs.
	FixedEligible bool
	// ProgEligible means the op can execute on the programmable PIM
	// (conditionals, discretization, transcendentals are fine there).
	ProgEligible bool
	// DecomposableFrac is the fraction of the op's arithmetic that is
	// pure multiply/add (offloadable to fixed-function PIMs); the rest
	// is the Fig. 6 "computation phases" that need a programmable core.
	DecomposableFrac float64

	CPUComputeEff   float64
	CPUBwEff        float64
	GPUComputeEff   float64 // multiplied by the per-model §V-D utilization
	GPUBwEff        float64
	ProgComputeEff  float64
	ProgBwEff       float64
	FixedComputeEff float64
	FixedBwEff      float64
}

// DecomposableFlops is the portion of o offloadable to fixed-function
// PIMs: the multiply/add work scaled by the type's decomposable
// fraction (p must be ProfileFor(o.Type)). OtherFlops never decomposes
// — it is the Fig. 6 "computation phases" that need a programmable
// core.
func (p *Profile) DecomposableFlops(o *Op) float64 {
	return (o.Muls + o.Adds) * p.DecomposableFrac
}

// ResidualFlops is the arithmetic of o that must run on a programmable
// device (CPU or programmable PIM) even when the op is offloaded (p
// must be ProfileFor(o.Type)).
func (p *Profile) ResidualFlops(o *Op) float64 {
	return o.TotalFlops() - p.DecomposableFlops(o)
}

// profiles is the per-type behaviour table. The numbers are calibration
// constants chosen so the CPU model reproduces Table I's ranking
// structure and the cross-device factors land in the paper's headline
// bands (DESIGN.md §4-5); they are not vendor datasheet values.
var profiles = map[OpType]Profile{
	OpConv2D: {
		Type: OpConv2D, FixedEligible: true, ProgEligible: true, DecomposableFrac: 1.0,
		CPUComputeEff: 0.40, CPUBwEff: 0.45, GPUComputeEff: 0.055, GPUBwEff: 0.60,
		ProgComputeEff: 0.22, ProgBwEff: 0.70, FixedComputeEff: 0.95, FixedBwEff: 0.85,
	},
	OpConv2DBackpropFilter: {
		Type: OpConv2DBackpropFilter, FixedEligible: true, ProgEligible: true, DecomposableFrac: 0.999,
		CPUComputeEff: 0.10, CPUBwEff: 0.18, GPUComputeEff: 0.042, GPUBwEff: 0.55,
		ProgComputeEff: 0.15, ProgBwEff: 0.60, FixedComputeEff: 0.92, FixedBwEff: 0.85,
	},
	OpConv2DBackpropInput: {
		Type: OpConv2DBackpropInput, FixedEligible: true, ProgEligible: true, DecomposableFrac: 0.999,
		CPUComputeEff: 0.115, CPUBwEff: 0.22, GPUComputeEff: 0.045, GPUBwEff: 0.55,
		ProgComputeEff: 0.17, ProgBwEff: 0.60, FixedComputeEff: 0.93, FixedBwEff: 0.85,
	},
	OpMatMul: {
		Type: OpMatMul, FixedEligible: true, ProgEligible: true, DecomposableFrac: 1.0,
		CPUComputeEff: 0.22, CPUBwEff: 0.40, GPUComputeEff: 0.060, GPUBwEff: 0.60,
		ProgComputeEff: 0.25, ProgBwEff: 0.70, FixedComputeEff: 0.95, FixedBwEff: 0.85,
	},
	OpBiasAdd: {
		Type: OpBiasAdd, FixedEligible: true, ProgEligible: true, DecomposableFrac: 1,
		CPUComputeEff: 0.10, CPUBwEff: 0.50, GPUComputeEff: 0.02, GPUBwEff: 0.70,
		ProgComputeEff: 0.55, ProgBwEff: 0.80, FixedComputeEff: 0.90, FixedBwEff: 0.90,
	},
	OpBiasAddGrad: {
		// TensorFlow's strided column reduction: dreadful CPU bandwidth
		// efficiency, which is why it is #2 on VGG-19's MI list while
		// contributing little arithmetic.
		Type: OpBiasAddGrad, FixedEligible: true, ProgEligible: true, DecomposableFrac: 0.98,
		CPUComputeEff: 0.02, CPUBwEff: 0.055, GPUComputeEff: 0.015, GPUBwEff: 0.45,
		ProgComputeEff: 0.45, ProgBwEff: 0.75, FixedComputeEff: 0.85, FixedBwEff: 0.90,
	},
	OpRelu: {
		// Conditional: not decomposable to multiply/add, programmable
		// PIM territory (Section II-A).
		Type: OpRelu, FixedEligible: false, ProgEligible: true, DecomposableFrac: 0,
		CPUComputeEff: 0.06, CPUBwEff: 0.55, GPUComputeEff: 0.01, GPUBwEff: 0.75,
		ProgComputeEff: 0.60, ProgBwEff: 0.85, FixedComputeEff: 0, FixedBwEff: 0,
	},
	OpReluGrad: {
		Type: OpReluGrad, FixedEligible: false, ProgEligible: true, DecomposableFrac: 0,
		CPUComputeEff: 0.06, CPUBwEff: 0.50, GPUComputeEff: 0.01, GPUBwEff: 0.75,
		ProgComputeEff: 0.60, ProgBwEff: 0.85, FixedComputeEff: 0, FixedBwEff: 0,
	},
	OpMaxPool: {
		// Sample-based discretization: comparisons, not mul/add.
		Type: OpMaxPool, FixedEligible: false, ProgEligible: true, DecomposableFrac: 0,
		CPUComputeEff: 0.05, CPUBwEff: 0.45, GPUComputeEff: 0.01, GPUBwEff: 0.70,
		ProgComputeEff: 0.55, ProgBwEff: 0.80, FixedComputeEff: 0, FixedBwEff: 0,
	},
	OpMaxPoolGrad: {
		Type: OpMaxPoolGrad, FixedEligible: false, ProgEligible: true, DecomposableFrac: 0,
		CPUComputeEff: 0.04, CPUBwEff: 0.35, GPUComputeEff: 0.01, GPUBwEff: 0.65,
		ProgComputeEff: 0.50, ProgBwEff: 0.75, FixedComputeEff: 0, FixedBwEff: 0,
	},
	OpApplyAdam: {
		// sqrt + division: partially decomposable; the paper names it a
		// programmable-PIM op.
		Type: OpApplyAdam, FixedEligible: true, ProgEligible: true, DecomposableFrac: 0.60,
		CPUComputeEff: 0.08, CPUBwEff: 0.45, GPUComputeEff: 0.015, GPUBwEff: 0.70,
		ProgComputeEff: 0.55, ProgBwEff: 0.80, FixedComputeEff: 0.85, FixedBwEff: 0.90,
	},
	OpSoftmax: {
		Type: OpSoftmax, FixedEligible: false, ProgEligible: true, DecomposableFrac: 0,
		CPUComputeEff: 0.05, CPUBwEff: 0.40, GPUComputeEff: 0.01, GPUBwEff: 0.60,
		ProgComputeEff: 0.45, ProgBwEff: 0.75, FixedComputeEff: 0, FixedBwEff: 0,
	},
	OpCrossEntropy: {
		Type: OpCrossEntropy, FixedEligible: false, ProgEligible: true, DecomposableFrac: 0,
		CPUComputeEff: 0.05, CPUBwEff: 0.40, GPUComputeEff: 0.01, GPUBwEff: 0.60,
		ProgComputeEff: 0.45, ProgBwEff: 0.75, FixedComputeEff: 0, FixedBwEff: 0,
	},
	OpMul: {
		Type: OpMul, FixedEligible: true, ProgEligible: true, DecomposableFrac: 1,
		CPUComputeEff: 0.10, CPUBwEff: 0.50, GPUComputeEff: 0.02, GPUBwEff: 0.75,
		ProgComputeEff: 0.60, ProgBwEff: 0.85, FixedComputeEff: 0.90, FixedBwEff: 0.90,
	},
	OpAdd: {
		Type: OpAdd, FixedEligible: true, ProgEligible: true, DecomposableFrac: 1,
		CPUComputeEff: 0.10, CPUBwEff: 0.50, GPUComputeEff: 0.02, GPUBwEff: 0.75,
		ProgComputeEff: 0.60, ProgBwEff: 0.85, FixedComputeEff: 0.90, FixedBwEff: 0.90,
	},
	OpSlice: {
		// Pure data movement with limited parallelism: the paper's
		// example of a small op that benefits from the pipeline.
		Type: OpSlice, FixedEligible: false, ProgEligible: true, DecomposableFrac: 0,
		CPUComputeEff: 0.02, CPUBwEff: 0.30, GPUComputeEff: 0.005, GPUBwEff: 0.55,
		ProgComputeEff: 0.10, ProgBwEff: 0.80, FixedComputeEff: 0, FixedBwEff: 0,
	},
	OpReshape: {
		Type: OpReshape, FixedEligible: false, ProgEligible: true, DecomposableFrac: 0,
		CPUComputeEff: 0.02, CPUBwEff: 0.60, GPUComputeEff: 0.005, GPUBwEff: 0.80,
		ProgComputeEff: 0.10, ProgBwEff: 0.85, FixedComputeEff: 0, FixedBwEff: 0,
	},
	OpSum: {
		Type: OpSum, FixedEligible: true, ProgEligible: true, DecomposableFrac: 0.95,
		CPUComputeEff: 0.05, CPUBwEff: 0.25, GPUComputeEff: 0.01, GPUBwEff: 0.55,
		ProgComputeEff: 0.45, ProgBwEff: 0.75, FixedComputeEff: 0.85, FixedBwEff: 0.90,
	},
	OpMean: {
		Type: OpMean, FixedEligible: true, ProgEligible: true, DecomposableFrac: 0.90,
		CPUComputeEff: 0.05, CPUBwEff: 0.25, GPUComputeEff: 0.01, GPUBwEff: 0.55,
		ProgComputeEff: 0.45, ProgBwEff: 0.75, FixedComputeEff: 0.85, FixedBwEff: 0.90,
	},
	OpTranspose: {
		Type: OpTranspose, FixedEligible: false, ProgEligible: true, DecomposableFrac: 0,
		CPUComputeEff: 0.02, CPUBwEff: 0.25, GPUComputeEff: 0.005, GPUBwEff: 0.50,
		ProgComputeEff: 0.10, ProgBwEff: 0.70, FixedComputeEff: 0, FixedBwEff: 0,
	},
	OpPad: {
		Type: OpPad, FixedEligible: false, ProgEligible: true, DecomposableFrac: 0,
		CPUComputeEff: 0.02, CPUBwEff: 0.45, GPUComputeEff: 0.005, GPUBwEff: 0.70,
		ProgComputeEff: 0.10, ProgBwEff: 0.80, FixedComputeEff: 0, FixedBwEff: 0,
	},
	OpConcat: {
		Type: OpConcat, FixedEligible: false, ProgEligible: true, DecomposableFrac: 0,
		CPUComputeEff: 0.02, CPUBwEff: 0.45, GPUComputeEff: 0.005, GPUBwEff: 0.70,
		ProgComputeEff: 0.10, ProgBwEff: 0.80, FixedComputeEff: 0, FixedBwEff: 0,
	},
	OpBatchNorm: {
		Type: OpBatchNorm, FixedEligible: true, ProgEligible: true, DecomposableFrac: 0.95,
		CPUComputeEff: 0.06, CPUBwEff: 0.35, GPUComputeEff: 0.012, GPUBwEff: 0.60,
		ProgComputeEff: 0.50, ProgBwEff: 0.75, FixedComputeEff: 0.85, FixedBwEff: 0.88,
	},
	OpBatchNormGrad: {
		Type: OpBatchNormGrad, FixedEligible: true, ProgEligible: true, DecomposableFrac: 0.95,
		CPUComputeEff: 0.05, CPUBwEff: 0.30, GPUComputeEff: 0.012, GPUBwEff: 0.55,
		ProgComputeEff: 0.45, ProgBwEff: 0.72, FixedComputeEff: 0.85, FixedBwEff: 0.88,
	},
	OpTanh: {
		Type: OpTanh, FixedEligible: false, ProgEligible: true, DecomposableFrac: 0,
		CPUComputeEff: 0.04, CPUBwEff: 0.45, GPUComputeEff: 0.01, GPUBwEff: 0.70,
		ProgComputeEff: 0.45, ProgBwEff: 0.80, FixedComputeEff: 0, FixedBwEff: 0,
	},
	OpSigmoid: {
		Type: OpSigmoid, FixedEligible: false, ProgEligible: true, DecomposableFrac: 0,
		CPUComputeEff: 0.04, CPUBwEff: 0.45, GPUComputeEff: 0.01, GPUBwEff: 0.70,
		ProgComputeEff: 0.45, ProgBwEff: 0.80, FixedComputeEff: 0, FixedBwEff: 0,
	},
	OpLSTMCell: {
		Type: OpLSTMCell, FixedEligible: true, ProgEligible: true, DecomposableFrac: 0.85,
		CPUComputeEff: 0.20, CPUBwEff: 0.40, GPUComputeEff: 0.05, GPUBwEff: 0.60,
		ProgComputeEff: 0.25, ProgBwEff: 0.70, FixedComputeEff: 0.90, FixedBwEff: 0.85,
	},
	OpLSTMCellGrad: {
		Type: OpLSTMCellGrad, FixedEligible: true, ProgEligible: true, DecomposableFrac: 0.80,
		CPUComputeEff: 0.12, CPUBwEff: 0.30, GPUComputeEff: 0.045, GPUBwEff: 0.55,
		ProgComputeEff: 0.20, ProgBwEff: 0.65, FixedComputeEff: 0.88, FixedBwEff: 0.85,
	},
	OpEmbeddingLookup: {
		Type: OpEmbeddingLookup, FixedEligible: false, ProgEligible: true, DecomposableFrac: 0,
		CPUComputeEff: 0.02, CPUBwEff: 0.15, GPUComputeEff: 0.005, GPUBwEff: 0.35,
		ProgComputeEff: 0.10, ProgBwEff: 0.70, FixedComputeEff: 0, FixedBwEff: 0,
	},
	OpEmbeddingGrad: {
		Type: OpEmbeddingGrad, FixedEligible: false, ProgEligible: true, DecomposableFrac: 0,
		CPUComputeEff: 0.02, CPUBwEff: 0.12, GPUComputeEff: 0.005, GPUBwEff: 0.30,
		ProgComputeEff: 0.10, ProgBwEff: 0.65, FixedComputeEff: 0, FixedBwEff: 0,
	},
	OpNCELoss: {
		Type: OpNCELoss, FixedEligible: true, ProgEligible: true, DecomposableFrac: 0.80,
		CPUComputeEff: 0.15, CPUBwEff: 0.35, GPUComputeEff: 0.04, GPUBwEff: 0.55,
		ProgComputeEff: 0.25, ProgBwEff: 0.70, FixedComputeEff: 0.90, FixedBwEff: 0.85,
	},
	OpDropout: {
		Type: OpDropout, FixedEligible: false, ProgEligible: true, DecomposableFrac: 0,
		CPUComputeEff: 0.05, CPUBwEff: 0.45, GPUComputeEff: 0.01, GPUBwEff: 0.70,
		ProgComputeEff: 0.20, ProgBwEff: 0.80, FixedComputeEff: 0, FixedBwEff: 0,
	},
	OpAvgPool: {
		Type: OpAvgPool, FixedEligible: true, ProgEligible: true, DecomposableFrac: 0.90,
		CPUComputeEff: 0.05, CPUBwEff: 0.45, GPUComputeEff: 0.01, GPUBwEff: 0.70,
		ProgComputeEff: 0.55, ProgBwEff: 0.80, FixedComputeEff: 0.85, FixedBwEff: 0.88,
	},
	OpAvgPoolGrad: {
		Type: OpAvgPoolGrad, FixedEligible: true, ProgEligible: true, DecomposableFrac: 0.90,
		CPUComputeEff: 0.04, CPUBwEff: 0.35, GPUComputeEff: 0.01, GPUBwEff: 0.65,
		ProgComputeEff: 0.50, ProgBwEff: 0.75, FixedComputeEff: 0.85, FixedBwEff: 0.88,
	},
}

// ProgParallelismFor bounds how many programmable-PIM processors one
// operation of the given type can productively use (the Amdahl limit of
// its intra-op parallelism on coarse-grained cores). The Progr PIM
// baseline executes "operations on as many ARM-based programmable cores
// as needed by workloads" — needed, not available.
func ProgParallelismFor(t OpType) int {
	switch t {
	case OpConv2D, OpConv2DBackpropFilter, OpConv2DBackpropInput, OpMatMul,
		OpLSTMCell, OpLSTMCellGrad, OpNCELoss:
		return 16
	case OpRelu, OpReluGrad, OpMul, OpAdd, OpBiasAdd, OpApplyAdam, OpDropout,
		OpBatchNorm, OpBatchNormGrad, OpTanh, OpSigmoid:
		return 8
	case OpMaxPool, OpMaxPoolGrad, OpAvgPool, OpAvgPoolGrad, OpBiasAddGrad,
		OpSum, OpMean, OpSoftmax, OpCrossEntropy:
		return 4
	default:
		// Slice, Reshape, Transpose, Pad, Concat, embedding ops: tiny or
		// latency-bound.
		return 1
	}
}

// ProfileFor returns the behaviour profile of an op type. Unknown types
// fall back to a conservative programmable-only profile so experimental
// graphs never crash the simulator.
func ProfileFor(t OpType) Profile {
	if p, ok := profiles[t]; ok {
		return p
	}
	return Profile{
		Type: t, ProgEligible: true,
		CPUComputeEff: 0.05, CPUBwEff: 0.30, GPUComputeEff: 0.01, GPUBwEff: 0.50,
		ProgComputeEff: 0.15, ProgBwEff: 0.70,
	}
}

// KnownOpTypes returns the catalogued op types (for tests and tools).
func KnownOpTypes() []OpType {
	out := make([]OpType, 0, len(profiles))
	for t := range profiles {
		out = append(out, t)
	}
	return out
}
