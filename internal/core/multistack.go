package core

import (
	"context"
	"fmt"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/runner"
	"heteropim/internal/sim"
	"heteropim/internal/thermal"
)

// Sharded multi-stack execution: M HMC stacks train data-parallel on a
// split minibatch and synchronize gradients over the inter-stack links
// once per step. Each stack is simulated by its own event engine — the
// engines share nothing, so they advance concurrently on the runner
// pool — and the per-stack results are merged deterministically:
//
//   - shard i runs batch ShardBatches(B, M)[i] of the global batch B
//     through the unmodified single-stack executor (its own engine,
//     slab task graph and result-cache entry), as an nn.Named
//     source, so a cached shard builds no graph; shards of one batch
//     size share their source, so a cold run builds one graph per
//     distinct shard batch, and at the global batch only the graph its
//     digest needs when the digest memo lacks it;
//   - the merged compute phase is the slowest stack's step (argmax over
//     StepTime, lowest stack index on ties), because data-parallel
//     peers proceed in lockstep at all-reduce barriers;
//   - the all-reduce is AllReduceStepTime over the
//     nn.AllReduceTemplate phases and cfg.Link, the same model the DSE
//     bound uses;
//   - usage and energy sum over stacks in fixed index order, so the
//     merged Result is byte-identical no matter how many workers ran
//     the shards or in which order they finished.
//
// Merge rules (DESIGN.md §5i):
//
//	StepTime      = max_i(shard StepTime) + AllReduceTime
//	Breakdown     = slowest shard's breakdown, Sync += AllReduceTime
//	Usage         = sum over shards (index order) + InterStackBytes
//	FixedUtil/ops = slowest shard's (a per-stack property)

// ReduceSchedule selects the gradient all-reduce schedule of a
// multi-stack run. It aliases the nn task-graph template kind; the
// empty string means "default" (ring) and is what single-stack runs
// normalize to.
type ReduceSchedule = nn.AllReduceKind

const (
	// ReduceRing is the bandwidth-optimal ring all-reduce.
	ReduceRing = nn.AllReduceRing
	// ReduceTree is the latency-optimal binomial-tree all-reduce.
	ReduceTree = nn.AllReduceTree
)

// runMultiPIM is the Stacks > 1 arm of RunPIM. opts is normalized. It
// reads the model, batch size and parameter footprint of src without
// resolving its graph (nn.NamedModel), so only the shards' graphs are
// built.
func runMultiPIM(src nn.Source, cfg hw.SystemConfig, opts Options) (Result, error) {
	m := opts.Stacks
	if err := cfg.ValidateMultiStack(); err != nil {
		return Result{}, err
	}
	// Each shard runs the model by name at its own batch size, so the
	// input must be a named model, unmodified at its batch size —
	// otherwise the shards would silently simulate a different network.
	name, batch, paramBytes, err := nn.NamedModel(src)
	if err != nil {
		return Result{}, fmt.Errorf("core: multi-stack run needs a named model graph: %w", err)
	}
	shards, err := nn.ShardBatches(batch, m)
	if err != nil {
		return Result{}, err
	}
	srcs := nn.ShareNamed(m, func(i int) (nn.ModelName, int) { return name, shards[i] })
	for i, s := range srcs {
		if s == nil {
			_, err := nn.Named(name, shards[i])
			return Result{}, err
		}
	}
	shardOpts := opts
	shardOpts.Stacks, shardOpts.AllReduce = 1, ""
	// One engine per stack, advanced in parallel. runner.Map reassembles
	// results in input (= stack index) order whatever the completion
	// order, which is half of the determinism story; the other half is
	// that every reduction below iterates stacks in index order.
	// Instrumentation binds to stack 0 only — the stacks are near-clones
	// and a second collector would interleave identical timelines.
	results, err := runner.Map(context.Background(), m, 0, func(_ context.Context, i int) (Result, error) {
		so := shardOpts
		if i > 0 {
			so.Collector, so.Trace = nil, nil
		}
		return RunPIM(srcs[i], cfg, so)
	})
	if err != nil {
		return Result{}, err
	}
	// The gradient all-reduce over the template's phases, its link spans
	// on the run's collector.
	arTime, arBytes, err := allReduceStep(opts.AllReduce, m, paramBytes, cfg.Link, opts.Collector)
	if err != nil {
		return Result{}, err
	}
	// Slowest stack paces the step; ties break to the lowest index.
	slow := 0
	for i := 1; i < m; i++ {
		if results[i].StepTime > results[slow].StepTime {
			slow = i
		}
	}
	res := results[slow]
	res.Config = cfg
	res.Config.Name = fmt.Sprintf("%s x%d", cfg.Name, m)
	res.Model = string(name)
	res.Stacks = m
	res.AllReduce = string(opts.AllReduce)
	res.StackStepTime = res.StepTime
	res.AllReduceTime = arTime
	res.StepTime = res.StackStepTime + arTime
	res.Breakdown.Sync += arTime
	var u Usage
	for i := 0; i < m; i++ {
		u.add(results[i].Usage)
	}
	u.InterStackBytes = arBytes
	res.Usage = u
	if cfg.FixedPIM.Units > 0 {
		temp, terr := stackMaxTemp(cfg, opts)
		if terr != nil {
			return Result{}, terr
		}
		res.StackMaxTemp = temp
	}
	return res, nil
}

// phaseDuration is the wall-clock of one all-reduce phase: every
// transfer in a phase moves frac*gradBytes concurrently on its own
// link, so the phase costs one link latency plus the chunk's serialized
// bytes.
func phaseDuration(frac, gradBytes float64, link hw.InterStackLinkSpec) hw.Seconds {
	return link.Latency + frac*gradBytes/link.Bandwidth
}

// AllReduceStepTime returns the per-step gradient synchronization time
// and the total bytes crossing the inter-stack links for the given
// schedule, from the task-graph template. It is both a multi-stack
// run's all-reduce and the synchronization leg of the DSE's admissible
// lower bound, so the two agree by construction.
func AllReduceStepTime(sched ReduceSchedule, stacks int, gradBytes float64, link hw.InterStackLinkSpec) (hw.Seconds, float64, error) {
	return allReduceStep(sched, stacks, gradBytes, link, nil)
}

// allReduceStep is AllReduceStepTime reporting each transfer to obs, if
// non-nil, as a "link" span lasting its phase. A phase opens when the
// previous one ends; its transfers run concurrently, so it emits every
// TaskStart at its open time and then every TaskEnd at its close, both
// in template order.
func allReduceStep(sched ReduceSchedule, stacks int, gradBytes float64, link hw.InterStackLinkSpec, obs sim.Collector) (hw.Seconds, float64, error) {
	phases, err := nn.AllReduceTemplate(sched, stacks)
	if err != nil {
		return 0, 0, err
	}
	var t hw.Seconds
	var bytes float64
	for _, ph := range phases {
		end := t + phaseDuration(ph.Frac, gradBytes, link)
		for _, tr := range ph.Transfers {
			if obs != nil {
				obs.TaskStart(linkSpan(tr, t, 0))
			}
			bytes += ph.Frac * gradBytes
		}
		if obs != nil {
			for _, tr := range ph.Transfers {
				obs.TaskEnd(linkSpan(tr, t, end))
			}
		}
		t = end
	}
	return t, bytes, nil
}

// linkSpan is the timeline span of one all-reduce transfer from start
// to end (0 while it is open).
func linkSpan(tr [2]int, start, end hw.Seconds) sim.Task {
	return sim.Task{
		Track: "link",
		Name:  fmt.Sprintf("allreduce %d->%d", tr[0], tr[1]),
		Kind:  "allreduce",
		Start: start,
		End:   end,
	}
}

// stackMaxTemp solves one stack's steady-state hottest-bank temperature
// under the run's fixed-function placement — every stack of the array
// is identical, so one solve covers the per-stack thermal budget.
func stackMaxTemp(cfg hw.SystemConfig, opts Options) (float64, error) {
	stack, placement, err := placeFixedUnits(cfg, opts)
	if err != nil {
		return 0, err
	}
	scale := cfg.Stack.FreqScale
	if scale == 0 {
		scale = 1
	}
	return thermal.PlacementMaxTemp(stack, placement, cfg.FixedPIM, scale)
}

// RunMulti is the multi-stack counterpart of RunOn: it runs the graph's
// global batch data-parallel across `stacks` stacks of the given PIM
// platform with the chosen all-reduce schedule. stacks <= 1 falls back
// to the single-stack RunOn path (bit-identical to it); the CPU and GPU
// baselines have no stacks to shard across and are rejected.
func RunMulti(kind hw.ConfigKind, src nn.Source, cfg hw.SystemConfig, stacks int, sched ReduceSchedule) (Result, error) {
	if stacks <= 1 {
		return RunOn(kind, src, cfg)
	}
	opts, ok := PIMOptionsFor(kind)
	if !ok {
		return Result{}, fmt.Errorf("core: multi-stack training needs a PIM platform, got %v", kind)
	}
	opts.Stacks, opts.AllReduce = stacks, sched
	return RunPIM(src, cfg, opts)
}
