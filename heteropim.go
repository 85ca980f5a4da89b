// Package heteropim is the public API of the heterogeneous
// processing-in-memory (PIM) training simulator — a from-scratch Go
// reproduction of "Processing-in-Memory for Energy-efficient Neural
// Network Training: A Heterogeneous Approach" (MICRO 2018).
//
// The package exposes three layers:
//
//   - Simulation: Simulate runs one BatchCell — a workload model on one
//     of the five evaluated platform configurations (CPU, GPU, Progr
//     PIM, Fixed PIM, Hetero PIM), optionally at another stack
//     frequency, batch size or stack count, with the RC/OP techniques
//     toggled or another programmable-PIM count — and returns step time,
//     the Fig. 8 breakdown, whole-system energy and fixed-function
//     utilization. Run is the plain cell; BatchRun evaluates many cells
//     on the shared worker pool.
//
//   - Experiments: Experiments lists a runner per paper table/figure
//     (Table I, Figs. 2 and 8-17); each regenerates the corresponding
//     rows/series as a text table.
//
//   - Functional math: the Tensor API (MatMul, Conv2D and its backprops,
//     ReLU, MaxPool, Adam...) runs genuine FP32 training math on small
//     tensors, so examples can train a real micro-model end to end.
package heteropim

import (
	"heteropim/internal/core"
	"heteropim/internal/energy"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/runner"
)

// SetParallelism fixes how many experiment cells (independent
// simulations) may run concurrently during sweeps; n <= 0 restores the
// GOMAXPROCS default. It returns the previous setting so callers can
// restore it. The HETEROPIM_WORKERS environment variable is the
// out-of-process equivalent. Parallel and sequential sweeps produce
// bit-identical tables: parallelism is only ever across independent
// simulations, never within one.
func SetParallelism(n int) int { return runner.SetWorkers(n) }

// Parallelism reports the worker count parallel sweeps currently use.
func Parallelism() int { return runner.Workers() }

// ---- simulation result cache ----
//
// Uninstrumented simulations are memoized by a content-addressed
// fingerprint of (graph, hardware configuration, effective options), so
// repeated cells — across figures, sweeps and CLI invocations sharing a
// cache directory — collapse to one live run. A cell is looked up by
// its model's memoized graph digest before any graph is built, so a hit
// builds none. Cache hits are bit-identical to cold runs. Instrumented runs (Simulate with a
// Metrics, trace or census options) always execute live and never touch
// the cache.

// EnvCacheDir is the environment variable naming the on-disk cache
// directory (the persistent second tier); unset keeps the cache in
// memory only. SetSimulationCacheDir overrides it per process.
const EnvCacheDir = core.EnvCacheDir

// SetSimulationCache enables or disables the simulation result cache
// (default: enabled), returning the previous state.
func SetSimulationCache(on bool) bool { return core.EnableResultCache(on) }

// SetSimulationCacheDir sets the on-disk cache directory ("" disables
// the disk tier), returning the previous one.
func SetSimulationCacheDir(dir string) string { return core.SetResultCacheDir(dir) }

// CacheStats counts simulation-cache traffic; see core.CacheStats.
type CacheStats = core.CacheStats

// SimulationCacheStats reads the process's cache counters.
func SimulationCacheStats() CacheStats { return core.ResultCacheStats() }

// ResetSimulationCache drops every memoized result and the model and
// configuration digests their lookups hash, and zeroes the counters
// (benchmark harnesses isolating cold-path timing).
func ResetSimulationCache() { core.ResetResultCache() }

// DropSimulationCacheMemory evicts the in-memory cache tier only,
// keeping the disk tier and the counters: the next lookup of each cell
// behaves like a fresh process sharing the same cache directory. The
// cluster harness uses it so in-process replicas hit the shared L2
// disk tier the way separate replica processes would.
func DropSimulationCacheMemory() { core.DropResultCacheMemory() }

// Model names a training workload (Section V-C).
type Model = nn.ModelName

// The seven evaluated models.
const (
	VGG19       = nn.VGG19Name
	AlexNet     = nn.AlexNetName
	DCGAN       = nn.DCGANName
	ResNet50    = nn.ResNet50Name
	InceptionV3 = nn.InceptionV3Name
	LSTM        = nn.LSTMName
	Word2Vec    = nn.Word2VecName
)

// Config names one of the five evaluated platform configurations.
type Config = hw.ConfigKind

// The five platforms of Section VI.
const (
	ConfigCPU       = hw.ConfigCPU
	ConfigGPU       = hw.ConfigGPU
	ConfigProgrPIM  = hw.ConfigProgrPIM
	ConfigFixedPIM  = hw.ConfigFixedPIM
	ConfigHeteroPIM = hw.ConfigHeteroPIM
)

// Models returns the five CNN models of Figs. 8-15 in figure order.
func Models() []Model { return nn.CNNModelNames() }

// AllModels adds the two non-CNN co-run models (LSTM, Word2vec).
func AllModels() []Model { return nn.AllModelNames() }

// Configs returns the five platform configurations in figure order.
func Configs() []Config { return hw.AllConfigKinds() }

// Breakdown splits a step's wall clock as in Fig. 8.
type Breakdown struct {
	Operation    float64 // seconds of computation (CPU/GPU/PIMs)
	DataMovement float64 // seconds stalled on data movement
	Sync         float64 // seconds of synchronization / kernel launch
}

// Result is the outcome of simulating one model on one configuration.
type Result struct {
	Model  Model
	Config string
	// StepTime is the steady-state wall-clock seconds per training step.
	StepTime float64
	// Breakdown components sum to StepTime.
	Breakdown Breakdown
	// Energy is the whole-system dynamic energy per step (joules).
	Energy float64
	// AvgPower is Energy / StepTime (watts).
	AvgPower float64
	// EDP is the energy-delay product (J*s).
	EDP float64
	// FixedUtilization is the fixed-function PIM pool utilization
	// (0 for configurations without fixed-function PIMs).
	FixedUtilization float64
	// OffloadedOps / CPUOps count per-step operation placement.
	OffloadedOps, CPUOps int
	// Stacks is how many HMC stacks the step was sharded across (1 for
	// the paper's single-stack system).
	Stacks int
	// AllReduce is the gradient schedule of a multi-stack run ("ring"
	// or "tree"; empty for single-stack).
	AllReduce string
	// AllReduceTime is the per-step gradient synchronization seconds
	// included in StepTime (multi-stack runs only).
	AllReduceTime float64
	// StackStepTime is the slowest stack's compute seconds before the
	// all-reduce; StepTime = StackStepTime + AllReduceTime (multi-stack
	// runs only).
	StackStepTime float64
	// StackMaxTemp is one stack's hottest-bank steady-state temperature
	// in deg C under the run's placement (multi-stack runs with a
	// fixed-function pool; 0 otherwise).
	StackMaxTemp float64
}

// wrap converts an internal result to the public shape.
func wrap(r core.Result) Result {
	e := energy.Evaluate(r)
	stacks := r.Stacks
	if stacks < 1 {
		stacks = 1
	}
	return Result{
		Stacks:        stacks,
		AllReduce:     r.AllReduce,
		AllReduceTime: r.AllReduceTime,
		StackStepTime: r.StackStepTime,
		StackMaxTemp:  r.StackMaxTemp,
		Model:         Model(r.Model),
		Config:        r.Config.Name,
		StepTime:      r.StepTime,
		Breakdown: Breakdown{
			Operation:    r.Breakdown.Operation,
			DataMovement: r.Breakdown.DataMovement,
			Sync:         r.Breakdown.Sync,
		},
		Energy:           e.Dynamic,
		AvgPower:         e.AvgPower,
		EDP:              e.EDP,
		FixedUtilization: r.FixedUtilization,
		OffloadedOps:     r.OffloadedOps,
		CPUOps:           r.CPUOps,
	}
}

// Run simulates steady-state training of model on config at the
// paper's batch size and stack frequency: Simulate of the plain cell.
func Run(config Config, model Model) (Result, error) {
	return Simulate(BatchCell{Config: config, Model: model}, nil)
}

// Variant toggles the two runtime techniques of Section VI-E.
type Variant struct {
	// RecursiveKernels enables RC (Fig. 6 recursive PIM kernels).
	RecursiveKernels bool
	// OperationPipeline enables OP (the cross-step operation pipeline).
	OperationPipeline bool
}
