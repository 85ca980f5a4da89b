package core

import (
	"context"
	"fmt"

	"heteropim/internal/hmc"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/pim"
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
//   - the all-reduce is simulated as its own event timeline from the
//     nn.AllReduceTemplate task graph over cfg.Link;
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
			so.Collector, so.Trace, so.Census = nil, nil, nil
		}
		return RunPIM(srcs[i], cfg, so)
	})
	if err != nil {
		return Result{}, err
	}
	// The gradient all-reduce, as its own event timeline over the
	// template's phase graph.
	arTime, arBytes, _, err := simulateAllReduce(opts.AllReduce, m, paramBytes, cfg.Link, opts.Collector)
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
// bytes. Shared by the event simulation and the analytic bound so the
// two agree bit for bit.
func phaseDuration(frac, gradBytes float64, link hw.InterStackLinkSpec) hw.Seconds {
	return link.Latency + frac*gradBytes/link.Bandwidth
}

// AllReduceStepTime returns the per-step gradient synchronization time
// and the total bytes crossing the inter-stack links for the given
// schedule, analytically from the task-graph template. It matches the
// event-simulated all-reduce exactly (same per-phase float additions in
// the same order), which is what makes it usable as the synchronization
// leg of the DSE's admissible lower bound.
func AllReduceStepTime(sched ReduceSchedule, stacks int, gradBytes float64, link hw.InterStackLinkSpec) (hw.Seconds, float64, error) {
	phases, err := nn.AllReduceTemplate(sched, stacks)
	if err != nil {
		return 0, 0, err
	}
	var t hw.Seconds
	var bytes float64
	for _, ph := range phases {
		t += phaseDuration(ph.Frac, gradBytes, link)
		bytes += ph.Frac * gradBytes * float64(len(ph.Transfers))
	}
	return t, bytes, nil
}

// simulateAllReduce runs the schedule's phase graph on an engine of its
// own: each transfer is one completion event, a phase opens when the
// previous one fully drains, and transfers within a phase are scheduled
// in template order so the (time, seq) heap order — and with it the
// collector's span stream — is deterministic. Returns the synchronized
// time, total link bytes and processed event count.
func simulateAllReduce(sched ReduceSchedule, stacks int, gradBytes float64, link hw.InterStackLinkSpec, obs sim.Collector) (hw.Seconds, float64, uint64, error) {
	phases, err := nn.AllReduceTemplate(sched, stacks)
	if err != nil {
		return 0, 0, 0, err
	}
	eng := sim.New()
	eng.SetCollector(obs)
	a := &allReduce{eng: eng, phases: phases, gradBytes: gradBytes, link: link}
	eng.SetHandler(a)
	a.startPhase(0)
	if err := eng.Run(); err != nil {
		return 0, 0, 0, err
	}
	if a.err != nil {
		return 0, 0, 0, a.err
	}
	return eng.Now(), a.bytes, eng.Processed(), nil
}

// evTransferDone is the all-reduce's one event kind: a link transfer of
// the open phase finished.
const evTransferDone sim.EventKind = 1

// allReduce is the event handler of one simulated all-reduce. Only one
// phase is open at a time, so the open phase and its start time live
// here, not on the events.
type allReduce struct {
	eng       *sim.Engine
	phases    []nn.AllReducePhase
	gradBytes float64
	link      hw.InterStackLinkSpec
	// phase is the open phase, start the time it opened, and remaining
	// counts its transfers still in flight.
	phase     int
	start     hw.Seconds
	remaining int
	bytes     float64
	err       error
}

// startPhase schedules phase p's transfers, each completing one phase
// duration from now. Each transfer's "link" span opens here and closes
// in HandleEvent, when its completion event fires.
func (a *allReduce) startPhase(p int) {
	if p >= len(a.phases) || a.err != nil {
		return
	}
	ph := a.phases[p]
	dur := phaseDuration(ph.Frac, a.gradBytes, a.link)
	a.phase, a.start = p, a.eng.Now()
	a.remaining = len(ph.Transfers)
	for _, tr := range ph.Transfers {
		if a.eng.Observing() {
			a.eng.EmitTaskStart(linkSpan(tr, a.start))
		}
		a.bytes += ph.Frac * a.gradBytes
		if err := a.eng.AfterEv(dur, sim.Ev{Kind: evTransferDone}); err != nil {
			a.err = err
			return
		}
	}
}

// HandleEvent completes one transfer; the last one of its phase opens
// the next phase. A phase's transfers share one duration and were
// scheduled in template order, so they complete in that order: the
// completion is transfer len(Transfers)-remaining of the open phase. An
// event of any other kind fails the run.
func (a *allReduce) HandleEvent(ev sim.Ev) {
	if ev.Kind != evTransferDone {
		a.err = fmt.Errorf("core: all-reduce event of unknown kind %d", ev.Kind)
		return
	}
	if a.eng.Observing() {
		ph := a.phases[a.phase]
		a.eng.EmitTaskEnd(linkSpan(ph.Transfers[len(ph.Transfers)-a.remaining], a.start))
	}
	a.remaining--
	if a.remaining == 0 {
		a.startPhase(a.phase + 1)
	}
}

// linkSpan is the timeline span of one all-reduce transfer started at
// start.
func linkSpan(tr [2]int, start hw.Seconds) sim.Task {
	return sim.Task{
		Track: "link",
		Name:  fmt.Sprintf("allreduce %d->%d", tr[0], tr[1]),
		Kind:  "allreduce",
		Start: start,
	}
}

// stackMaxTemp solves one stack's steady-state hottest-bank temperature
// under the run's fixed-function placement — every stack of the array
// is identical, so one solve covers the per-stack thermal budget.
func stackMaxTemp(cfg hw.SystemConfig, opts Options) (float64, error) {
	stack, err := hmc.New(cfg.Stack)
	if err != nil {
		return 0, err
	}
	var placement pim.Placement
	if opts.UniformPlacement {
		placement, err = pim.UniformPlacement(stack, cfg.FixedPIM.Units)
	} else {
		placement, err = pim.ThermalPlacement(stack, cfg.FixedPIM.Units)
	}
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
