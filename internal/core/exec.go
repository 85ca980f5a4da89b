package core

import (
	"fmt"
	"math"
	"slices"

	"heteropim/internal/device"
	"heteropim/internal/hmc"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/pim"
	"heteropim/internal/sim"
)

// Options parameterizes the PIM executors (Hetero PIM and the two
// PIM-only baselines run through the same discrete-event machinery).
//
// Concurrency contract: an Options value is bound to ONE RunPIM call.
// Independent simulations may run concurrently (the parallel sweep
// layer in internal/runner does exactly that), but each run must get
// its own Options value. A Trace hook or Collector shared between
// concurrent runs must itself be safe for concurrent use.
type Options struct {
	// Stacks is the number of HMC stacks the run shards the minibatch
	// across (data-parallel training with a gradient all-reduce per
	// step). 0 or 1 means the paper's single-stack system; M > 1
	// requires a named, unmodified model graph (the shards are rebuilt
	// per stack) and a config with a positive inter-stack link
	// bandwidth.
	Stacks int
	// AllReduce selects the gradient all-reduce schedule for Stacks > 1
	// (ring or tree; default ring). Ignored — and normalized away — for
	// single-stack runs.
	AllReduce ReduceSchedule
	// RC enables recursive PIM kernels (Fig. 6): residual phases run on
	// the programmable PIM and per-section synchronization stays inside
	// the stack instead of round-tripping to the host.
	RC bool
	// OP enables the operation pipeline: operations of the next
	// training step may use idle fixed-function units when data
	// dependences allow (Section III-C).
	OP bool
	// PipelineDepth is how many training steps may be in flight under
	// OP (default 2: current + next, as in the paper's description).
	PipelineDepth int
	// Steps is the number of steady-state steps to simulate (default 4).
	Steps int
	// UseSelection runs the profiling + dual-index candidate selection;
	// when false every op is a candidate (the no-runtime baselines).
	UseSelection bool
	// XPercent is the selection threshold (default 90, Section III-C).
	XPercent float64
	// NoCPUFallback disables principle 2's CPU fallback; the Progr PIM
	// baseline runs every operation on the programmable cores.
	NoCPUFallback bool
	// WideProgOps lets one operation span multiple programmable
	// processors (up to its intrinsic parallelism) — the Progr PIM
	// baseline's "as many ARM-based programmable cores as needed".
	WideProgOps bool
	// UniformPlacement switches the fixed-function placement from the
	// thermal-aware policy to uniform. Central banks then throttle to
	// respect the thermal envelope, derating the pool's sustained
	// frequency (the placement ablation of DESIGN.md §6).
	UniformPlacement bool
	// GPUHost attaches the heterogeneous PIM to a GPU system instead of
	// a CPU one (the Section II-D discussion, built here as an
	// extension study): non-offloaded operations execute on the GPU at
	// its kernel-launch granularity.
	GPUHost bool
	// Trace, when non-nil, is called once per scheduling decision, from
	// the run's own goroutine, with the simulated time of the decision,
	// the step, the op and the path it was placed on ("cpu", "prog" or
	// "fixed"). pimtrain -schedtrace prints these decisions and -explain
	// counts them per op type.
	Trace func(at hw.Seconds, step int, op *nn.Op, path string)
	// DisableOpportunistic turns off the Fig. 2 class-1 rule (offload
	// non-candidate compute ops when units idle) — an ablation that
	// shows the rule is load-bearing for deep serial networks.
	DisableOpportunistic bool
	// Collector, when non-nil, receives the run's instrumentation
	// events: per-device task spans, queue depths, fixed-pool busy
	// units, pipeline occupancy and scheduling counters (the
	// observability layer; metrics.Collector records and exports them).
	// Like every Options field it binds this value to one run — but a
	// collector that is itself safe for concurrent use (metrics.Collector
	// is) may be SHARED by the Options values of concurrent runs. The
	// uninstrumented path pays one nil check per hook. Attaching a
	// collector never changes simulation results.
	Collector sim.Collector
}

// withDefaults normalizes option values.
func (o Options) withDefaults() Options {
	if o.PipelineDepth <= 0 {
		o.PipelineDepth = 2
	}
	if o.Steps <= 0 {
		o.Steps = 4
	}
	if o.XPercent <= 0 {
		o.XPercent = 90
	}
	// Normalize the multi-stack axis so every single-stack Options value
	// fingerprints identically: Stacks 0 and 1 are the same system, and
	// a schedule without stacks to run on is meaningless.
	if o.Stacks < 1 {
		o.Stacks = 1
	}
	if o.Stacks == 1 {
		o.AllReduce = ""
	} else if o.AllReduce == "" {
		o.AllReduce = ReduceRing
	}
	return o
}

// uniformPlacementDerate is the sustained-frequency penalty of ignoring
// the thermal placement policy (hot central banks throttle).
const uniformPlacementDerate = 0.92

// pathKind is where the scheduler placed an operation.
type pathKind int

const (
	pathCPU pathKind = iota
	pathProg
	pathFixed
)

// fixedKernelQuantumFlops is the work of ONE small kernel loadable on a
// group of fixed-function PIMs (one extracted code section instance,
// Section IV-B). Without recursive kernels the host pays a spawn and a
// completion synchronization for every one of them — the "frequent
// operation-spawning and host-PIM synchronization" overhead of
// Section II-C that RC exists to remove.
const fixedKernelQuantumFlops = 1e6

// fixedTimeQuantum bounds how long one unit grant is held before the
// runtime re-evaluates it. This implements the paper's dynamic usage:
// "an operation can dynamically change its usage of PIMs, depending on
// the availability of PIMs" — a starved operation regains units at the
// next quantum, and a newly released pool is redistributed quickly.
const fixedTimeQuantum hw.Seconds = 2e-3

// Event kinds of the PIM executor, numbered from 1 so a zero sim.Ev is
// never a real event. Every kind names its task in Ref, as the task's
// slab index (exec.ref), and reads its operands from the task: a task
// has at most one pending event, so taskState's fields from held on
// hold that event's operands until it fires. Scheduling these allocates
// nothing and stores no pointer — the 8-byte event travels inside the
// engine's heap key — which is what makes the steady-state inner loop
// allocation-free (the AllocsPerRun pin in exec_alloc_test.go) and free
// of GC write barriers.
const (
	// evItemDone: a serial-device work item finished. The device is the
	// task's path (prog or host); held = slots to release, start = span
	// start.
	evItemDone sim.EventKind = iota + 1
	// evStartResidual: begin one residual half; before = before-sections.
	evStartResidual
	// evResidualDone: a residual half finished; before = before-sections,
	// start = span start.
	evResidualDone
	// evSectionDone: one fixed-pool chunk finished; held = granted units,
	// chunkFlops/chunkBytes = the chunk's work, syncGap = the gap that
	// follows it, start = span start.
	evSectionDone
	// evSyncGap: the post-chunk synchronization gap elapsed; request the
	// next chunk or finish the op.
	evSyncGap
)

// task is one operation instance (op x step) in flight: the op and step
// it instantiates, and the state a run mutates. Its dependents are not
// stored on it: complete finds them in the run's consumer lists.
type task struct {
	op   *nn.Op
	step int
	taskState
}

// taskState is everything a run mutates in a task. A delta checkpoint
// freezes it whole and a replay restores it whole (checkpoint.go); a
// deep checkpoint can freeze a task mid-section, so that includes its
// pending event's operands.
type taskState struct {
	deps int
	// token is the op's handle in the Fig. 7 status registers.
	token pim.OpToken

	path pathKind
	// remFlops/remBytes is the remaining decomposable work streamed
	// through the fixed-function units.
	remFlops, remBytes float64
	// syncPerFlop spreads the op's total per-kernel synchronization
	// cost over its decomposable flops.
	syncPerFlop float64

	// The operands of the task's pending event (see the event kinds):
	// device slots or fixed units held, the fixed-pool chunk in flight
	// and its sync gap, which residual half runs, and the open span's
	// start.
	held                   int32
	before                 bool
	chunkFlops, chunkBytes float64
	syncGap                hw.Seconds
	start                  hw.Seconds
}

// workItem is a unit of queued device work.
type workItem struct {
	dur   hw.Seconds
	opT   hw.Seconds // operation-time share
	dmT   hw.Seconds // data-movement share
	slots int        // device slots occupied (defaults to 1)
	// bypassed counts how many shorter items jumped ahead (SJF aging:
	// after maxBypass jumps the item cannot be overtaken again).
	bypassed int
	// t is the slab index of the task this item executes. The
	// completion action is derived from the task's path when the item's
	// evItemDone fires (prog items clear their status register before
	// waking dependents), so the item needs no callback.
	t int32
}

// maxBypass bounds SJF queue jumping so long operations cannot starve.
const maxBypass = 8

// serialDevice is a multi-slot resource (the host, or the set of
// programmable PIM processors). The host runs shortest-job-first: the
// 8-core machine timeslices, so a small framework op is never stuck
// behind a long-running macro operation.
//
// The queue is head-indexed: pops advance head instead of re-slicing,
// so one backing array serves the whole run (the old `queue[1:]`
// re-slice leaked the array head and forced append to re-grow it
// continuously — the hottest allocation site of the scheduling loop).
type serialDevice struct {
	slots int
	busy  int
	sjf   bool
	queue []workItem
	head  int
	// busySeconds integrates slot occupancy for the energy model.
	busySeconds float64
	// name is the device's timeline track ("cpu", "prog", "gpu");
	// queueMetric is the precomputed gauge name for its queue depth.
	name        string
	queueMetric string
}

// pending returns the number of queued items.
func (d *serialDevice) pending() int { return len(d.queue) - d.head }

// pop removes and returns the head item, recycling the backing array
// when the queue drains.
func (d *serialDevice) pop() workItem {
	w := d.queue[d.head]
	d.head++
	switch {
	case d.head == len(d.queue):
		d.queue = d.queue[:0]
		d.head = 0
	case d.head > 32 && d.head*2 > len(d.queue):
		// Compact a mostly-consumed queue so a long run that never
		// fully drains still reuses the front of the array.
		n := copy(d.queue, d.queue[d.head:])
		d.queue = d.queue[:n]
		d.head = 0
	}
	return w
}

// opConst is one op's timing constants for a run: its profile, the
// two rates every fixed-pool chunk is priced with (device.FixedUnitRate
// and device.FixedBandwidth on the run's stack) and the units one of
// its kernels occupies (nn.Op.UnitGranule, at least 1), the multiple
// every fixed-pool grant comes in.
type opConst struct {
	prof     nn.Profile
	unitRate hw.FlopsPerSec
	fixedBW  hw.BytesPerSec
	granule  int
}

// exec is the discrete-event executor state.
type exec struct {
	eng  *sim.Engine
	cfg  hw.SystemConfig
	g    *nn.Graph
	opts Options
	// cand is the run's offload-candidate set, shared with the profile
	// cache; nil makes every op a candidate (the no-selection
	// baselines).
	cand *candidateSet

	pool *pim.Pool
	regs *pim.Registers
	cpu  *serialDevice
	prog *serialDevice

	// stack is the stack spec the PIM devices run on (derated under
	// uniform placement) and ops[id] holds op id's timing constants on
	// it. Both are built once per run (newExec), so the per-event path
	// neither looks a profile up nor copies a spec.
	stack hw.StackSpec
	ops   []opConst

	// fixedBanks caches the (static) bank list reported to the Fig. 7
	// status registers for fixed-function offloads.
	fixedBanks []int

	// fixedPending is the FIFO of tasks (slab indices) waiting for fixed
	// units. It is head-indexed like the device queues: pops advance
	// fixedHead so the backing array is reused instead of re-sliced away.
	fixedPending []int32
	fixedHead    int

	// tasks holds every task at its slab index (step*len(g.Ops) + opID),
	// the index events, work items and fixedPending name tasks by.
	tasks []task
	// consumers[consumersAt[id]:consumersAt[id+1]] lists the tasks that
	// wait on op id's task, as slab offsets from its step's row: the
	// same-step consumers (offset = consumer ID, one per input edge, in
	// (consumer ID, input) order), then, with OP off, the next step's
	// CrossStep consumers (offset = len(g.Ops) + consumer ID).
	consumers   []int32
	consumersAt []int32
	stepLeft    []int
	heldBack    [][]*task // dep-free tasks awaiting step admission
	firstOpen   int       // smallest step with unfinished tasks

	bk      Breakdown // serial attribution sums
	usage   Usage
	offload int
	cpuOps  int
	err     error

	// watch, when non-nil, records the run's unit-budget-sensitive
	// decisions for the delta-simulation layer (checkpoint.go): replay
	// constraints before the first fixed-pool grant, and the event index
	// of that grant (where the shareable timeline prefix ends).
	watch *capWatch
}

// RunPIM simulates steady-state training on a PIM-equipped platform.
// It covers Hetero PIM (with/without RC and OP), the Fixed PIM baseline
// (no programmable processors in cfg) and the Progr PIM baseline (no
// fixed units in cfg).
//
// Uninstrumented runs are served through the cross-run result cache
// (result_cache.go): identical (graph, config, options) cells collapse
// to a single live simulation, and a hit is found by src's digest
// alone, so an nn.Named source builds no graph for it. Instrumented
// runs — any run with a Collector or Trace hook attached — bypass the
// cache in both directions, because their value is the side effects.
func RunPIM(src nn.Source, cfg hw.SystemConfig, opts Options) (Result, error) {
	opts = opts.withDefaults()
	return cachedRun(tagPIM, src, cfg, opts, nil, func() (Result, error) {
		if opts.Stacks > 1 {
			return runMultiPIM(src, cfg, opts)
		}
		return runPIM(src.Graph(), cfg, opts)
	})
}

// runPIM is the live (uncached) simulation behind RunPIM; opts must
// already be normalized by withDefaults.
func runPIM(g *nn.Graph, cfg hw.SystemConfig, opts Options) (Result, error) {
	x, err := newExec(g, cfg, opts)
	if err != nil {
		return Result{}, err
	}
	x.seed()
	return x.drainRun()
}

// placeFixedUnits builds the run's stack and places cfg's
// fixed-function units on it, by the thermal-aware policy or, with
// opts.UniformPlacement, uniformly. Without fixed units the placement
// is empty.
func placeFixedUnits(cfg hw.SystemConfig, opts Options) (*hmc.Stack, pim.Placement, error) {
	stack, err := hmc.New(cfg.Stack)
	if err != nil || cfg.FixedPIM.Units <= 0 {
		return stack, pim.Placement{}, err
	}
	place := pim.ThermalPlacement
	if opts.UniformPlacement {
		place = pim.UniformPlacement
	}
	placement, err := place(stack, cfg.FixedPIM.Units)
	return stack, placement, err
}

// newExec assembles a ready-to-seed executor: validated configuration,
// unit placement, a fresh engine with the executor attached as its
// typed-event handler, the per-op timing table, the candidate set and
// the instantiated task DAG.
// Everything through here is shared verbatim between a normal run
// (runPIM), a checkpoint capture and a delta replay; only what happens
// after — seed + drain vs. state restore + drain — differs. opts must
// already be normalized by withDefaults.
func newExec(g *nn.Graph, cfg hw.SystemConfig, opts Options) (*exec, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.GPUHost && cfg.GPU.SMs <= 0 {
		return nil, fmt.Errorf("core: GPU-host execution needs a GPU in the configuration")
	}
	_, placement, err := placeFixedUnits(cfg, opts)
	if err != nil {
		return nil, err
	}
	eng := sim.New()
	// Attach the collector before any scheduling happens.
	eng.SetCollector(opts.Collector)
	hostTrack := "cpu"
	if opts.GPUHost {
		hostTrack = "gpu"
	}
	x := &exec{
		eng:  eng,
		cfg:  cfg,
		g:    g,
		opts: opts,
		pool: pim.NewPool(cfg.FixedPIM, placement),
		regs: pim.NewRegisters(cfg.Stack.Banks, cfg.ProgPIM.Processors),
		// The host is modelled with two op-level slots: TensorFlow's
		// inter-op thread pool keeps multiple operations in flight on
		// the 8-core machine, which is what lets a co-running job use
		// idle host cycles (Section VI-F).
		cpu:  &serialDevice{slots: 2, sjf: true, name: hostTrack, queueMetric: "queue." + hostTrack},
		prog: &serialDevice{slots: cfg.ProgPIM.Processors, name: "prog", queueMetric: "queue.prog"},
	}
	// The executor is the engine's typed-event dispatcher.
	eng.SetHandler(x)
	// Uniform placement throttles the hot central banks for the whole
	// run: derate the stack once, then price every op on it.
	x.stack = cfg.Stack
	if opts.UniformPlacement {
		if x.stack.FreqScale == 0 {
			x.stack.FreqScale = 1
		}
		x.stack.FreqScale *= uniformPlacementDerate
	}
	x.ops = make([]opConst, len(g.Ops))
	for _, op := range g.Ops {
		c := &x.ops[op.ID]
		c.prof = nn.ProfileFor(op.Type)
		c.unitRate = device.FixedUnitRate(&c.prof, cfg.FixedPIM, x.stack)
		c.fixedBW = device.FixedBandwidth(&c.prof, x.stack)
		c.granule = max(op.UnitGranule, 1)
	}
	// The placement is static, so the bank list reported to the status
	// registers is too: compute it once instead of per offloaded op.
	for b, u := range placement.Units {
		if u > 0 {
			x.fixedBanks = append(x.fixedBanks, b)
			if len(x.fixedBanks) == 4 {
				break
			}
		}
	}
	candidates := len(g.Ops)
	if opts.UseSelection {
		x.cand = cachedCandidates(g, cfg.CPU, opts.XPercent)
		candidates = x.cand.n
	}
	// Selection-rank decisions, for the metrics dump: how many ops the
	// dual-index rank admitted to the candidate set.
	eng.EmitCount("sched.ops", float64(len(g.Ops)))
	eng.EmitCount("sched.candidates", float64(candidates))
	x.buildTasks()
	return x, nil
}

// drainRun executes the scheduled events to completion and folds the
// executor's accumulated state into a Result. The caller must have
// either seeded the run (seed) or restored a checkpoint into the
// engine beforehand.
func (x *exec) drainRun() (Result, error) {
	if err := x.eng.Run(); err != nil {
		return Result{}, err
	}
	x.eng.EmitCount("sim.events", float64(x.eng.Processed()))
	if x.err != nil {
		return Result{}, x.err
	}
	// Hardware/software contract: every pimOffload must have been
	// matched by a completion — the Fig. 7 registers read all-idle.
	for b := 0; b < x.cfg.Stack.Banks; b++ {
		if x.regs.IsBankBusy(b) {
			return Result{}, fmt.Errorf("core: bank %d status register still busy at end of simulation", b)
		}
	}
	for pidx := 0; pidx < x.cfg.ProgPIM.Processors; pidx++ {
		if x.regs.IsProcessorBusy(pidx) {
			return Result{}, fmt.Errorf("core: processor %d status register still busy at end of simulation", pidx)
		}
	}
	return x.finish(), nil
}

// buildTasks instantiates the op x step tasks in one slab, each with
// its dependency count, and wires the DAG once for all steps: op id's
// consumer list (CSR form, built from op.Inputs and op.CrossStep)
// serves the task of op id in every step, as offsets from that step's
// row. A task's consumers come in the order its completion wakes them
// in, which is part of the run's event order: same-step ones in
// (consumer ID, input) order, then the next step's cross-step ones.
func (x *exec) buildTasks() {
	steps := x.opts.Steps
	n := len(x.g.Ops)
	// Cross-step weight gates: under OP the runtime double-buffers
	// parameter updates so next-step forward work can start on
	// in-flight weights (the paper's next-step partial execution,
	// Section III-C); without OP the step barrier subsumes the gates, so
	// the explicit edges are only wired for the strict (no-OP) mode.
	cross := !x.opts.OP
	at := make([]int32, n+1)
	for _, op := range x.g.Ops {
		for _, in := range op.Inputs {
			at[in+1]++
		}
		if cross {
			for _, cs := range op.CrossStep {
				at[cs+1]++
			}
		}
	}
	for i := 1; i <= n; i++ {
		at[i] += at[i-1]
	}
	cons := make([]int32, at[n])
	next := slices.Clone(at[:n])
	for _, op := range x.g.Ops {
		for _, in := range op.Inputs {
			cons[next[in]] = int32(op.ID)
			next[in]++
		}
	}
	if cross {
		for _, op := range x.g.Ops {
			for _, cs := range op.CrossStep {
				cons[next[cs]] = int32(n + op.ID)
				next[cs]++
			}
		}
	}
	x.consumers, x.consumersAt = cons, at
	x.tasks = make([]task, steps*n)
	x.stepLeft = make([]int, steps)
	x.heldBack = make([][]*task, steps)
	for s := 0; s < steps; s++ {
		x.stepLeft[s] = n
		row := x.tasks[s*n : (s+1)*n]
		for _, op := range x.g.Ops {
			t := &row[op.ID]
			t.op, t.step = op, s
			t.deps = len(op.Inputs)
			if s > 0 && cross {
				t.deps += len(op.CrossStep)
			}
		}
	}
}

// ResetTaskTemplates does nothing: every run builds its own task DAG
// (buildTasks), so there is no template cache to drop.
//
// Deprecated: kept only because the benchmark module still calls it;
// delete it once the benchmark no longer does.
func ResetTaskTemplates() {}

// ref returns the task's slab index, the name events carry for it.
func (x *exec) ref(t *task) int32 { return int32(t.step*len(x.g.Ops) + t.op.ID) }

// admitted reports whether tasks of the given step may start.
func (x *exec) admitted(step int) bool {
	if !x.opts.OP {
		return step == x.firstOpen
	}
	return step < x.firstOpen+x.opts.PipelineDepth
}

// seed dispatches every dependency-free task of admissible steps.
func (x *exec) seed() {
	for i := range x.tasks {
		if t := &x.tasks[i]; t.deps == 0 {
			x.maybeDispatch(t)
		}
	}
}

// maybeDispatch starts a dep-free task now or holds it for admission.
func (x *exec) maybeDispatch(t *task) {
	if !x.admitted(t.step) {
		x.heldBack[t.step] = append(x.heldBack[t.step], t)
		return
	}
	x.dispatch(t)
}

// dispatch applies the three scheduling principles to place a task.
func (x *exec) dispatch(t *task) {
	c := &x.ops[t.op.ID]
	prof := &c.prof
	isCand := x.cand == nil || x.cand.has(t.op.ID)
	if t.op.HostOnly {
		// Section VI-F policy: the non-CNN model "executes on CPU or
		// the programmable PIM, when they are idle". Pick the idle
		// device only when it is not grossly slower for this op.
		cpuDur := device.CPUOp(t.op, prof, x.cfg.CPU).Time()
		progDur := math.Inf(1)
		if prof.ProgEligible && x.prog.slots > 0 {
			progDur = device.ProgOp(t.op, prof, x.cfg.ProgPIM, 1, x.stack).Time()
		}
		if x.cpu.busy >= x.cpu.slots && x.prog.busy < x.prog.slots && progDur <= 2*cpuDur {
			x.startProg(t)
			return
		}
		x.startCPU(t)
		return
	}
	fixedOK := prof.FixedEligible && x.poolHasUnits() && prof.DecomposableFlops(t.op) > 0
	// Fig. 2 / class 1: compute-intensive ops outside the candidate set
	// "do not have to be offloaded to PIMs, but we can offload them when
	// there are idling hardware units in PIMs" — opportunistic offload
	// when units are free right now (candidates may queue instead).
	granule := c.granule
	x.pool.Advance(x.eng.Now())
	// Offload opportunistically when units are idle right now, or when
	// the host is itself saturated (waiting for units beats queueing on
	// a busy CPU).
	opportunistic := fixedOK && !isCand && !x.opts.DisableOpportunistic &&
		(x.availAtLeast(granule) || x.cpu.busy >= x.cpu.slots)
	switch {
	// Principle 1: fixed-function PIMs first.
	case fixedOK && (isCand || opportunistic):
		x.startFixed(t)
	// Principle 2: PIMs over CPU; fall back to CPU when busy.
	case isCand && prof.ProgEligible && x.prog.slots > 0:
		x.startProg(t)
	default:
		x.startCPU(t)
	}
}

// trace reports one scheduling decision to the Trace hook and the
// collector, whichever is attached.
func (x *exec) trace(t *task) {
	if x.eng.Observing() {
		counters := [...]string{"sched.path.cpu", "sched.path.prog", "sched.path.fixed"}
		x.eng.EmitCount(counters[t.path], 1)
		// Pipeline occupancy: how many steps are in flight when this
		// placement happens (1 without OP, up to PipelineDepth with).
		x.eng.EmitSample("pipeline.steps_in_flight", float64(t.step-x.firstOpen+1))
	}
	if x.opts.Trace != nil {
		names := [...]string{"cpu", "prog", "fixed"}
		x.opts.Trace(x.eng.Now(), t.step, t.op, names[t.path])
	}
}

// complete marks a task done and wakes its dependents; when a step
// drains it may open admission for held-back steps.
func (x *exec) complete(t *task) {
	x.stepLeft[t.step]--
	row := t.step * len(x.g.Ops)
	for _, c := range x.consumers[x.consumersAt[t.op.ID]:x.consumersAt[t.op.ID+1]] {
		i := row + int(c)
		if i >= len(x.tasks) {
			break // cross-step consumers come last; the last step has none
		}
		d := &x.tasks[i]
		d.deps--
		if d.deps == 0 {
			x.maybeDispatch(d)
		}
	}
	for x.firstOpen < len(x.stepLeft) && x.stepLeft[x.firstOpen] == 0 {
		x.firstOpen++
		// Admission horizon moved: release everything now admissible.
		for s := 0; s < len(x.heldBack); s++ {
			if !x.admitted(s) {
				continue
			}
			held := x.heldBack[s]
			// Keep the backing array; no append can land on
			// heldBack[s] while held is walked — dispatch never
			// re-holds a task synchronously.
			x.heldBack[s] = held[:0]
			for _, ht := range held {
				x.dispatch(ht)
			}
		}
	}
}

// ---- device execution ----

// enqueue schedules a work item on a serial device (FIFO, head-of-line
// blocking for multi-slot items).
func (x *exec) enqueue(d *serialDevice, w workItem) {
	if w.slots < 1 {
		w.slots = 1
	}
	if w.slots > d.slots {
		w.slots = d.slots
	}
	x.bk.Operation += w.opT
	x.bk.DataMovement += w.dmT
	if d.sjf {
		// SJF insertion within the live window [head, len).
		at := len(d.queue)
		for at > d.head && d.queue[at-1].dur > w.dur && d.queue[at-1].bypassed < maxBypass {
			at--
		}
		d.queue = append(d.queue, workItem{})
		copy(d.queue[at+1:], d.queue[at:])
		d.queue[at] = w
		for i := at + 1; i < len(d.queue); i++ {
			d.queue[i].bypassed++
		}
	} else {
		d.queue = append(d.queue, w)
	}
	x.eng.EmitSample(d.queueMetric, float64(d.pending()))
	x.pumpDevice(d)
}

// pumpDevice starts queued items while slots are free.
func (x *exec) pumpDevice(d *serialDevice) {
	for d.pending() > 0 && d.busy+d.queue[d.head].slots <= d.slots {
		w := d.pop()
		d.busy += w.slots
		d.busySeconds += w.dur * float64(w.slots)
		t := &x.tasks[w.t]
		if x.eng.Observing() {
			x.eng.EmitSample(d.queueMetric, float64(d.pending()))
			x.eng.EmitTaskStart(sim.Task{Track: d.name, Name: t.op.Name, Kind: "op", Step: t.step})
		}
		t.held, t.start = int32(w.slots), x.eng.Now()
		if err := x.eng.AfterEv(w.dur, sim.Ev{Kind: evItemDone, Ref: w.t}); err != nil {
			x.err = err
		}
	}
}

// delayEv schedules a typed event after a pure synchronization delay.
func (x *exec) delayEv(dur hw.Seconds, ev sim.Ev) {
	x.bk.Sync += dur
	if err := x.eng.AfterEv(dur, ev); err != nil {
		x.err = err
	}
}

// residualTrack names the timeline lane residual halves run on; fixed
// for the whole run by the RC option and the processor count.
func (x *exec) residualTrack() string {
	if x.opts.RC && x.prog.slots > 0 {
		return "residual.prog"
	}
	return "residual.cpu"
}

// HandleEvent dispatches the executor's events. The statement order
// within each case is part of the contract: the golden tables are
// bit-sensitive to it. An event of a kind the executor never schedules
// fails the run.
func (x *exec) HandleEvent(ev sim.Ev) {
	t := &x.tasks[ev.Ref]
	switch ev.Kind {
	case evItemDone:
		d := x.cpu
		if t.path == pathProg {
			d = x.prog
		}
		d.busy -= int(t.held)
		if x.eng.Observing() {
			x.eng.EmitTaskEnd(sim.Task{Track: d.name, Name: t.op.Name, Kind: "op", Step: t.step, Start: t.start})
		}
		x.pumpDevice(d)
		if t.path == pathProg {
			x.completeOffload(t)
		}
		x.complete(t)
	case evStartResidual:
		x.runResidual(t, t.before)
	case evResidualDone:
		if x.eng.Observing() {
			x.eng.EmitTaskEnd(sim.Task{Track: x.residualTrack(), Name: t.op.Name, Kind: "residual", Step: t.step, Start: t.start})
		}
		if t.before {
			x.requestSection(t)
		} else {
			x.completeOffload(t)
			x.complete(t)
		}
	case evSectionDone:
		x.sectionDone(t)
	case evSyncGap:
		if t.remFlops > 0 {
			x.requestSection(t)
			return
		}
		// Completion: with RC the programmable PIM notifies the host
		// once; without RC the host already synchronized per kernel.
		if x.opts.RC {
			t.before = false
			x.delayEv(x.cfg.FixedPIM.HostSyncOverhead, sim.Ev{Kind: evStartResidual, Ref: ev.Ref})
		} else {
			x.runResidual(t, false)
		}
	default:
		x.err = fmt.Errorf("core: op %s: event of unknown kind %d", t.op.Name, ev.Kind)
	}
}

// startCPU runs the whole op on the host (CPU, or the GPU in the
// GPU-attached extension).
func (x *exec) startCPU(t *task) {
	t.path = pathCPU
	x.cpuOps++
	x.trace(t)
	prof := &x.ops[t.op.ID].prof
	var w device.Work
	var overhead hw.Seconds
	if x.opts.GPUHost {
		w = device.GPUOp(t.op, prof, x.cfg.GPU, gpuEff(x.g))
		overhead = x.cfg.GPU.KernelLaunchOverhead
		x.usage.GPUBytes += t.op.Bytes
	} else {
		w = device.CPUOp(t.op, prof, x.cfg.CPU)
		overhead = cpuDispatchOverhead
		x.usage.HostBytes += t.op.Bytes
	}
	opT, dmT := splitWork(w)
	x.bk.Sync += overhead
	x.enqueue(x.cpu, workItem{dur: w.Time() + overhead, opT: opT, dmT: dmT, t: x.ref(t)})
}

// startProg runs the whole op on programmable PIM processors. If all
// processors are busy and the host is idle, principle 2's fallback
// sends it to the CPU instead (unless disabled for the Progr PIM
// baseline).
func (x *exec) startProg(t *task) {
	if !x.opts.NoCPUFallback && x.prog.busy >= x.prog.slots && x.cpu.busy < x.cpu.slots {
		x.eng.EmitCount("sched.cpu_fallback", 1)
		x.startCPU(t)
		return
	}
	t.path = pathProg
	x.offload++
	x.trace(t)
	// Track the op in the status registers (pimOffload on the
	// programmable processor); completion clears it.
	x.registerOffload(t, pim.Location{OnProgrammable: true, Processor: 0})
	// A wide op runs on as many processors as its parallelism allows,
	// and occupies that many slots.
	procs := 1
	if x.opts.WideProgOps {
		procs = min(nn.ProgParallelismFor(t.op.Type), x.prog.slots)
	}
	w := device.ProgOp(t.op, &x.ops[t.op.ID].prof, x.cfg.ProgPIM, procs, x.stack)
	opT, dmT := splitWork(w)
	x.usage.PIMBytes += t.op.Bytes
	launch := x.cfg.ProgPIM.KernelLaunchOverhead + x.cfg.FixedPIM.HostSyncOverhead
	x.bk.Sync += launch
	x.enqueue(x.prog, workItem{dur: w.Time() + launch, opT: opT, dmT: dmT, slots: procs, t: x.ref(t)})
}

// registerOffload records the op in the hardware status registers
// (Table III's pimOffload) so the runtime can poll pimQueryCompletion;
// the simulator itself schedules by events, but keeping the registers
// live lets tests assert the hardware/software contract.
func (x *exec) registerOffload(t *task, loc pim.Location) {
	tok, err := x.regs.Offload(loc)
	if err != nil {
		x.err = err
		return
	}
	t.token = tok
}

// completeOffload marks the op finished in the status registers.
func (x *exec) completeOffload(t *task) {
	if t.token == 0 {
		return
	}
	if err := x.regs.Complete(t.token); err != nil {
		x.err = err
	}
	t.token = 0
}

// startFixed begins the offloaded lifecycle of Fig. 6:
//
//	phase1 (residual, prog with RC / CPU without) ->
//	chunked execution on dynamically granted fixed units, paying the
//	per-kernel synchronization as it goes ->
//	phase2 (residual) -> done.
func (x *exec) startFixed(t *task) {
	t.path = pathFixed
	x.offload++
	x.trace(t)
	df, db := device.FixedWork(t.op, &x.ops[t.op.ID].prof)
	t.remFlops, t.remBytes = df, db
	kernels := math.Ceil(df / fixedKernelQuantumFlops)
	if kernels < 1 {
		kernels = 1
	}
	var perKernel hw.Seconds
	if x.opts.RC {
		// In-stack synchronization rides the (PLL-scaled) logic clock,
		// which is why Fig. 11's sync bars shrink at 2x and 4x.
		scale := x.stack.FreqScale
		if scale <= 0 {
			scale = 1
		}
		perKernel = x.cfg.FixedPIM.PIMSyncOverhead / scale
	} else {
		perKernel = x.cfg.FixedPIM.SpawnOverhead + x.cfg.FixedPIM.HostSyncOverhead
	}
	if df > 0 {
		t.syncPerFlop = kernels * perKernel / df
	}
	x.usage.PIMBytes += db
	// Track the op in the status registers on the banks holding units
	// (pimQueryLocation's answer for this op).
	x.registerOffload(t, pim.Location{Banks: x.fixedBanks})
	// Kernel arrival overhead: with RC one host launch starts the
	// recursive kernel on the programmable PIM; without RC the host
	// drives every small kernel itself (charged per kernel, below).
	if x.opts.RC {
		t.before = true
		x.delayEv(x.cfg.ProgPIM.KernelLaunchOverhead, sim.Ev{Kind: evStartResidual, Ref: x.ref(t)})
	} else {
		x.runResidual(t, true)
	}
}

// runResidual executes half of the op's residual phases (before or
// after the sections). The phases are fine-grained bookkeeping that the
// programmable-PIM runtime (or the 8-core host, without RC) overlaps
// across in-flight operations, so they delay the op's own lifecycle but
// do not monopolize a device slot; their busy time still reaches the
// energy model.
func (x *exec) runResidual(t *task, before bool) {
	prof := &x.ops[t.op.ID].prof
	var w device.Work
	if x.opts.RC && x.prog.slots > 0 {
		w = device.ProgResidual(t.op, prof, x.cfg.ProgPIM, x.stack)
		x.usage.PIMBytes += t.op.Bytes * 0.10 / 2
	} else {
		w = device.CPUResidual(t.op, prof, x.cfg.CPU)
		x.usage.HostBytes += t.op.Bytes * 0.10 / 2
	}
	half := device.Work{Compute: w.Compute / 2, Memory: w.Memory / 2}
	opT, dmT := splitWork(half)
	x.bk.Operation += opT
	x.bk.DataMovement += dmT
	if x.opts.RC && x.prog.slots > 0 {
		x.prog.busySeconds += half.Time()
	} else {
		x.cpu.busySeconds += half.Time()
	}
	if x.eng.Observing() {
		x.eng.EmitTaskStart(sim.Task{Track: x.residualTrack(), Name: t.op.Name, Kind: "residual", Step: t.step})
	}
	t.before, t.start = before, x.eng.Now()
	if err := x.eng.AfterEv(half.Time(), sim.Ev{Kind: evResidualDone, Ref: x.ref(t)}); err != nil {
		x.err = err
	}
}

// requestSection tries to grant fixed units for the task's next chunk.
func (x *exec) requestSection(t *task) {
	x.markGrant()
	c := &x.ops[t.op.ID]
	granule := x.watchClampGranule(c.granule)
	x.pool.Advance(x.eng.Now())
	avail := x.pool.Available()
	granules := avail / granule
	x.watchQuotient(x.pool.Busy(), granule, granules)
	if granules == 0 {
		x.fixedPending = append(x.fixedPending, x.ref(t))
		return
	}
	granted := x.pool.Grant(granules * granule)
	x.runSection(t, c, granted)
}

// popFixedPending removes the head of the fixed-pool wait queue.
func (x *exec) popFixedPending() {
	x.fixedHead++
	if x.fixedHead == len(x.fixedPending) {
		x.fixedPending = x.fixedPending[:0]
		x.fixedHead = 0
	}
}

// runSection executes one time-quantum chunk on granted units; c is
// the task's op constants.
func (x *exec) runSection(t *task, c *opConst, granted int) {
	full := device.FixedSectionTime(t.remFlops, t.remBytes, granted, c.unitRate, c.fixedBW)
	if math.IsInf(full, 1) || math.IsNaN(full) {
		x.err = fmt.Errorf("core: op %s: non-finite section time with %d units", t.op.Name, granted)
		return
	}
	frac := 1.0
	dur := full
	if full > fixedTimeQuantum {
		frac = fixedTimeQuantum / full
		dur = fixedTimeQuantum
	}
	chunkFlops := t.remFlops * frac
	chunkBytes := t.remBytes * frac
	// Per-kernel synchronization for this chunk's kernels: cheap
	// in-stack syncs with RC, host spawns + completion syncs without
	// (Section III-B). The units are RELEASED during the gap — that
	// idle time is precisely the utilization loss Fig. 15 shows for
	// the no-RC configurations.
	syncCost := t.syncPerFlop * chunkFlops
	x.bk.Sync += syncCost
	// Breakdown attribution follows the roofline split.
	rate := c.unitRate * float64(granted)
	compT := chunkFlops / rate
	opT := min(compT, dur)
	x.bk.Operation += opT
	x.bk.DataMovement += dur - opT
	if x.eng.Observing() {
		// One span per granted chunk: the per-bank utilization signal of
		// the Fig. 15 study, as both a timeline lane and a busy-units
		// counter track.
		x.eng.EmitSample("fixed.busy_units", float64(x.pool.Busy()))
		x.eng.EmitTaskStart(sim.Task{Track: "fixed", Name: t.op.Name, Kind: "section", Step: t.step})
	}
	t.held, t.chunkFlops, t.chunkBytes, t.syncGap = int32(granted), chunkFlops, chunkBytes, syncCost
	t.start = x.eng.Now()
	if err := x.eng.AfterEv(dur, sim.Ev{Kind: evSectionDone, Ref: x.ref(t)}); err != nil {
		x.err = err
	}
}

// sectionDone finishes one granted chunk (the evSectionDone case):
// release the units, account the chunk, hand freed units to waiters,
// and schedule the synchronization gap.
func (x *exec) sectionDone(t *task) {
	x.pool.Advance(x.eng.Now())
	if err := x.pool.Release(int(t.held)); err != nil {
		x.err = err
		return
	}
	if x.eng.Observing() {
		x.eng.EmitTaskEnd(sim.Task{Track: "fixed", Name: t.op.Name, Kind: "section", Step: t.step, Start: t.start})
		x.eng.EmitSample("fixed.busy_units", float64(x.pool.Busy()))
	}
	t.remFlops -= t.chunkFlops
	t.remBytes -= t.chunkBytes
	if t.remFlops < 1 {
		t.remFlops = 0
	}
	x.pumpFixedPending()
	// The synchronization gap runs with the units already released.
	if err := x.eng.AfterEv(t.syncGap, sim.Ev{Kind: evSyncGap, Ref: x.ref(t)}); err != nil {
		x.err = err
	}
}

// pumpFixedPending hands freed units to waiting sections (the paper's
// "partially executed operations immediately utilize newly released
// fixed-function PIMs").
func (x *exec) pumpFixedPending() {
	for x.fixedHead < len(x.fixedPending) {
		x.markGrant()
		t := &x.tasks[x.fixedPending[x.fixedHead]]
		c := &x.ops[t.op.ID]
		granule := x.watchClampGranule(c.granule)
		granules := x.pool.Available() / granule
		x.watchQuotient(x.pool.Busy(), granule, granules)
		if granules == 0 {
			return
		}
		x.popFixedPending()
		granted := x.pool.Grant(granules * granule)
		x.runSection(t, c, granted)
	}
}

// finish assembles the Result, scaling the serial breakdown sums onto
// the wall-clock makespan.
func (x *exec) finish() Result {
	makespan := x.eng.Now()
	x.pool.Advance(makespan)
	x.eng.EmitSample("fixed.utilization", x.pool.Utilization())
	steps := float64(x.opts.Steps)
	res := Result{
		Config:   x.cfg,
		Model:    x.g.Model,
		StepTime: makespan / steps,
		Steps:    x.opts.Steps,
	}
	serial := x.bk.Total()
	if serial > 0 {
		res.Breakdown = x.bk.scale(res.StepTime / serial)
	}
	res.Usage = x.usage
	if x.opts.GPUHost {
		res.Usage.GPUBusy = x.cpu.busySeconds
		res.GPUUtilization = x.g.GPUUtilization
	} else {
		res.Usage.CPUBusy = x.cpu.busySeconds
	}
	res.Usage.ProgBusy = x.prog.busySeconds
	res.Usage.FixedBusyUnitSeconds = x.pool.BusyUnitSeconds()
	// Per-step averaging of usage.
	res.Usage.CPUBusy /= steps
	res.Usage.GPUBusy /= steps
	res.Usage.GPUBytes /= steps
	res.Usage.ProgBusy /= steps
	res.Usage.FixedBusyUnitSeconds /= steps
	res.Usage.HostBytes /= steps
	res.Usage.PIMBytes /= steps
	res.FixedUtilization = x.pool.Utilization()
	res.OffloadedOps = x.offload / x.opts.Steps
	res.CPUOps = x.cpuOps / x.opts.Steps
	return res
}
