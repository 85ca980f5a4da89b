package batch

import (
	"math"

	"heteropim/internal/core"
	"heteropim/internal/device"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// StepTimeLowerBound returns an ADMISSIBLE analytic lower bound on the
// steady-state step time RunPIM(g, cfg, opts) reports: it never exceeds
// the simulated value. That property is what lets the branch-and-bound
// exploration in dse.go discard candidates without simulating them yet
// provably return the exhaustive winner.
//
// The bound is the max of two relaxations, each of which ignores every
// overhead the simulator charges (kernel launches, spawns, host/PIM
// synchronization, residual splitting, chunked grants, queueing):
//
//  1. Capacity (roofline): one step performs Σ TotalFlops of arithmetic
//     and moves Σ Bytes. Even with every resource perfectly busy in
//     parallel, arithmetic retires at most at the sum of the device
//     peaks, and traffic streams at most at the sum of the channel
//     peaks. Devices can only be slower than peak (roofline max,
//     efficiency factors, contention), so work/Σpeak is a floor.
//     The CPU contributes twice its peak (the executor's two host
//     slots each price work against the full socket), and the stack's
//     internal bandwidth twice (programmable and fixed complements are
//     modeled without mutual contention) — over-crediting the hardware
//     keeps the bound admissible.
//
//  2. Pipeline critical path: within one step the op DAG's Inputs
//     edges are always honored, and step s is only admitted once step
//     s-depth has fully completed (depth = 1 without OP). A chain of
//     ceil(Steps/depth) whole-step critical paths is therefore serial,
//     and every op on a chain needs at least its fastest device time:
//     CPU roofline, programmable-PIM roofline at FULL processor count,
//     or — when fixed-eligible — the fixed-function section time on
//     the ENTIRE pool plus the cheaper of the two residual devices.
//     Chunked grants can only be slower (max is superadditive:
//     Σᵢ max(aᵢ,bᵢ) ≥ max(Σaᵢ,Σbᵢ)) and partial grants only slower
//     than the whole pool, so the per-op floor is admissible too.
//
// Anything the bound leaves out only increases simulated time, so
// pruning on `bound > incumbent` can never discard a true winner (see
// the equivalence test across all models in dse_test.go).
//
// StepTimeLowerBound is prepareBound(g, opts).eval(cfg); an exploration
// pricing many configurations of one graph prepares once.
func StepTimeLowerBound(g *nn.Graph, cfg hw.SystemConfig, opts core.Options) hw.Seconds {
	return prepareBound(g, opts).eval(cfg)
}

// preparedBound is StepTimeLowerBound split at the hardware: everything
// that depends only on the graph and the options — the pipeline shape,
// the flop and byte totals, the topological order, each op's profile and
// fixed-function work volume — is computed once by prepareBound, and
// eval prices one configuration against it with the same expressions,
// in the same order, as an unprepared bound would. eval only reads the
// prepared value.
type preparedBound struct {
	g            *nn.Graph
	steps, depth int
	flops, bytes float64
	// order is g's topological order, nil for a cyclic graph (RunPIM
	// will fail on it anyway; a zero critical path is admissible).
	order []int
	ops   []boundOp // indexed by op ID

	// Sharded runs (Stacks > 1) bound shard 0 plus the all-reduce; see
	// prepareBound. shard is nil when the shard graph cannot be built.
	stacks int
	sched  core.ReduceSchedule
	shard  *preparedBound
}

// boundOp is one op's candidate-independent share of the bound.
type boundOp struct {
	prof   nn.Profile
	df, db float64 // device.FixedWork
}

// prepareBound prepares the bound of g under opts.
//
// Sharded runs: the merged step time is exactly (slowest shard's
// compute step) + (all-reduce time), and the slowest shard is at least
// as slow as shard 0, whose own single-stack bound is admissible — so
// bound(shard 0) + allReduceTime is an admissible floor. The all-reduce
// leg uses the same per-phase arithmetic as the simulated schedule, in
// the same order, so it never exceeds (in fact equals) the simulated
// value. Every failure mode degrades toward zero, which is always
// admissible.
func prepareBound(g *nn.Graph, opts core.Options) *preparedBound {
	if opts.Stacks > 1 {
		b := &preparedBound{g: g, stacks: opts.Stacks, sched: opts.AllReduce}
		if b.sched == "" {
			b.sched = core.ReduceRing
		}
		shards, err := nn.ShardBatches(g.BatchSize, opts.Stacks)
		if err != nil {
			return b
		}
		sg, err := nn.BuildWithBatch(nn.ModelName(g.Model), shards[0])
		if err != nil {
			return b
		}
		so := opts
		so.Stacks, so.AllReduce = 1, ""
		b.shard = prepareBound(sg, so)
		return b
	}
	b := &preparedBound{g: g, steps: opts.Steps, depth: 1, ops: make([]boundOp, len(g.Ops))}
	if b.steps <= 0 {
		b.steps = 4
	}
	if opts.OP {
		b.depth = opts.PipelineDepth
		if b.depth <= 0 {
			b.depth = 2
		}
	}
	for _, op := range g.Ops {
		b.flops += op.TotalFlops()
		b.bytes += op.Bytes
		o := &b.ops[op.ID]
		o.prof = nn.ProfileFor(op.Type)
		o.df, o.db = device.FixedWork(op, &o.prof)
	}
	if order, err := g.TopoOrder(); err == nil {
		b.order = order
	}
	return b
}

// eval returns the bound on cfg.
func (b *preparedBound) eval(cfg hw.SystemConfig) hw.Seconds {
	if b.stacks > 1 {
		var ar hw.Seconds
		if t, _, err := core.AllReduceStepTime(b.sched, b.stacks, b.g.ParamBytes, cfg.Link); err == nil {
			ar = t
		}
		if b.shard == nil {
			return ar
		}
		return b.shard.eval(cfg) + ar
	}

	// Relaxation 1: aggregate capacity.
	peak := 2*cfg.CPU.Peak() + cfg.ProgPIM.Peak() +
		float64(cfg.FixedPIM.Units)*cfg.FixedPIM.FlopsPerUnitCycle*cfg.Stack.EffectiveFreq()
	bw := 2*cfg.CPU.MemBandwidth + 2*cfg.Stack.ScaledInternalBandwidth()
	capacity := math.Max(b.flops/peak, b.bytes/bw)

	// Relaxation 2: critical path of per-op best-case durations.
	cp := b.criticalPath(&cfg)
	pipelined := cp * hw.Seconds(ceilDiv(b.steps, b.depth)) / hw.Seconds(b.steps)

	return hw.Seconds(math.Max(capacity, float64(pipelined)))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// opFloor is the fastest any modeled path can execute op, excluding
// every overhead.
func (b *preparedBound) opFloor(op *nn.Op, cfg *hw.SystemConfig) hw.Seconds {
	o := &b.ops[op.ID]
	prof := &o.prof
	best := device.CPUOp(op, prof, cfg.CPU).Time()
	if prof.ProgEligible && cfg.ProgPIM.Processors > 0 {
		if t := device.ProgOp(op, prof, cfg.ProgPIM, cfg.ProgPIM.Processors, cfg.Stack).Time(); t < best {
			best = t
		}
	}
	if prof.FixedEligible && cfg.FixedPIM.Units > 0 {
		sect := device.FixedSectionTime(o.df, o.db, cfg.FixedPIM.Units,
			device.FixedUnitRate(prof, cfg.FixedPIM, cfg.Stack), device.FixedBandwidth(prof, cfg.Stack))
		res := device.CPUResidual(op, prof, cfg.CPU).Time()
		if cfg.ProgPIM.Processors > 0 {
			if t := device.ProgResidual(op, prof, cfg.ProgPIM, cfg.Stack).Time(); t < res {
				res = t
			}
		}
		if t := sect + res; t < best {
			best = t
		}
	}
	return best
}

// criticalPath is the longest Inputs-edge chain of opFloor durations.
func (b *preparedBound) criticalPath(cfg *hw.SystemConfig) hw.Seconds {
	dist := make([]hw.Seconds, len(b.g.Ops))
	var cp hw.Seconds
	for _, id := range b.order {
		op := b.g.Ops[id]
		var in hw.Seconds
		for _, dep := range op.Inputs {
			if dist[dep] > in {
				in = dist[dep]
			}
		}
		dist[id] = in + b.opFloor(op, cfg)
		if dist[id] > cp {
			cp = dist[id]
		}
	}
	return cp
}
