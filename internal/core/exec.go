package core

import (
	"fmt"
	"io"
	"math"

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
// its own Options value — in particular its own Census, which is
// written without synchronization. A Trace writer shared between
// concurrent runs must itself be safe for concurrent use (wrap it with
// SyncWriter); os.Stderr-style single-run tracing needs nothing extra.
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
	// HostOnlyOps restricts the listed op IDs to the CPU and the
	// programmable PIM (never the fixed-function pool). The
	// mixed-workload study runs the non-CNN model this way
	// (Section VI-F: "the non-CNN model executes on CPU or the
	// programmable PIM, when they are idle").
	HostOnlyOps map[int]bool
	// GPUHost attaches the heterogeneous PIM to a GPU system instead of
	// a CPU one (the Section II-D discussion, built here as an
	// extension study): non-offloaded operations execute on the GPU at
	// its kernel-launch granularity.
	GPUHost bool
	// Trace, when non-nil, receives one line per scheduling decision:
	// "t=<sim time> step=<n> op=<name> path=<cpu|prog|fixed>". The
	// writer is used from the run's own goroutine only; to share one
	// writer across concurrent runs, wrap it with SyncWriter.
	Trace io.Writer
	// DisableOpportunistic turns off the Fig. 2 class-1 rule (offload
	// non-candidate compute ops when units idle) — an ablation that
	// shows the rule is load-bearing for deep serial networks.
	DisableOpportunistic bool
	// Census, when non-nil, is filled with per-op-type placement counts.
	// It is written without synchronization: never share one Census
	// between concurrent runs.
	Census *PlacementCensus
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

// Typed event kinds of the PIM executor (sim.KindFunc = 0 is reserved
// for legacy closure events). Every kind carries its *task in Ptr; the
// scalar operands are documented per kind. Scheduling these allocates
// nothing — the payload travels by value inside the engine's heap slab —
// which is what makes the steady-state inner loop closure- and
// allocation-free (the AllocsPerRun pin in exec_alloc_test.go).
const (
	// evItemDone: a serial-device work item finished. A = device index
	// (devCPU/devProg), N = slots to release, Start = span start.
	evItemDone sim.EventKind = iota + 1
	// evStartResidual: begin one residual half. Flag = before-sections.
	evStartResidual
	// evResidualDone: a residual half finished. Flag = before-sections,
	// Start = span start.
	evResidualDone
	// evSectionDone: one fixed-pool chunk finished. N = granted units,
	// F1/F2 = chunk flops/bytes, F3 = sync-gap duration, Start = span
	// start.
	evSectionDone
	// evSyncGap: the post-chunk synchronization gap elapsed; request the
	// next chunk or finish the op.
	evSyncGap
)

// Serial-device indexes for evItemDone's A operand.
const (
	devCPU uint8 = iota
	devProg
)

// task is one operation instance (op x step) in flight.
type task struct {
	op   *nn.Op
	step int
	deps int
	outs []*task

	// token is the op's handle in the Fig. 7 status registers.
	token pim.OpToken

	path pathKind
	// remFlops/remBytes is the remaining decomposable work streamed
	// through the fixed-function units.
	remFlops, remBytes float64
	// syncPerFlop spreads the op's total per-kernel synchronization
	// cost over its decomposable flops.
	syncPerFlop float64
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
	// t is the task this item executes. The completion action is derived
	// from t.path when the item's evItemDone fires (prog items clear
	// their status register before waking dependents), so the item needs
	// no callback.
	t *task
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
	// idx is the device's evItemDone operand (devCPU or devProg).
	idx   uint8
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
	d.queue[d.head] = workItem{} // drop the task reference for the GC
	d.head++
	switch {
	case d.head == len(d.queue):
		d.queue = d.queue[:0]
		d.head = 0
	case d.head > 32 && d.head*2 > len(d.queue):
		// Compact a mostly-consumed queue so a long run that never
		// fully drains still reuses the front of the array.
		n := copy(d.queue, d.queue[d.head:])
		clearTail := d.queue[n:]
		for i := range clearTail {
			clearTail[i] = workItem{}
		}
		d.queue = d.queue[:n]
		d.head = 0
	}
	return w
}

// opConst is one op's timing constants for a run: its profile and the
// two rates every fixed-pool chunk is priced with (device.FixedUnitRate
// and device.FixedBandwidth on the run's stack).
type opConst struct {
	prof     nn.Profile
	unitRate hw.FlopsPerSec
	fixedBW  hw.BytesPerSec
}

// exec is the discrete-event executor state.
type exec struct {
	eng  *sim.Engine
	cfg  hw.SystemConfig
	g    *nn.Graph
	opts Options
	cand map[int]bool

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

	// fixedPending is the FIFO of tasks waiting for fixed units. It is
	// head-indexed like the device queues: pops advance fixedHead so the
	// backing array is reused instead of re-sliced away.
	fixedPending []*task
	fixedHead    int

	tasks     [][]*task // [step][opID]
	stepLeft  []int
	heldBack  [][]*task // dep-free tasks awaiting step admission
	firstOpen int       // smallest step with unfinished tasks

	// tpl/arena are set when the task DAG came from the template cache
	// (template.go); the arena returns to the template's pool after the
	// run.
	tpl   *taskTemplate
	arena *taskArena

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
// to a single live simulation. Instrumented runs — any run with a
// Collector, Trace writer or Census attached — bypass the cache in both
// directions, because their value is the side effects.
func RunPIM(g *nn.Graph, cfg hw.SystemConfig, opts Options) (Result, error) {
	opts = opts.withDefaults()
	run := func() (Result, error) { return runPIM(g, cfg, opts) }
	if opts.Stacks > 1 {
		run = func() (Result, error) { return runMultiPIM(g, cfg, opts) }
	}
	if resultCacheUsable(opts) {
		fp := fingerprintRun("pim", g, cfg, opts, nil)
		return cachedResult(fp, run)
	}
	return run()
}

// runPIM is the live (uncached) simulation behind RunPIM; opts must
// already be normalized by withDefaults.
func runPIM(g *nn.Graph, cfg hw.SystemConfig, opts Options) (Result, error) {
	x, err := newExec(g, cfg, opts)
	if err != nil {
		return Result{}, err
	}
	defer x.teardown()
	x.seed()
	return x.drainRun()
}

// newExec assembles a ready-to-seed executor: validated configuration,
// unit placement, a pooled engine with the executor attached as its
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
	stack, err := hmc.New(cfg.Stack)
	if err != nil {
		return nil, err
	}
	var placement pim.Placement
	if cfg.FixedPIM.Units > 0 {
		if opts.UniformPlacement {
			placement, err = pim.UniformPlacement(stack, cfg.FixedPIM.Units)
		} else {
			placement, err = pim.ThermalPlacement(stack, cfg.FixedPIM.Units)
		}
		if err != nil {
			return nil, err
		}
	}
	eng := sim.Acquire()
	// Attach the collector before any scheduling happens; Release's
	// Reset detaches it, so the pooled engine cannot leak it.
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
		cpu:  &serialDevice{idx: devCPU, slots: 2, sjf: true, name: hostTrack, queueMetric: "queue." + hostTrack},
		prog: &serialDevice{idx: devProg, slots: cfg.ProgPIM.Processors, name: "prog", queueMetric: "queue.prog"},
	}
	// The executor is the engine's typed-event dispatcher; Release's
	// Reset detaches it along with the collector.
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
	if opts.UseSelection {
		prof := CachedProfileStep(g, cfg.CPU)
		if len(opts.HostOnlyOps) > 0 {
			// Host-pinned operations (the Section VI-F non-CNN job) are
			// not offload candidates: drop them from the profile so
			// they cannot eat the x% selection budget. The cached
			// profile is shared — filter into a fresh slice.
			filtered := StepProfile{Entries: make([]ProfileEntry, 0, len(prof.Entries))}
			for _, e := range prof.Entries {
				if opts.HostOnlyOps[e.OpID] {
					continue
				}
				filtered.Entries = append(filtered.Entries, e)
				filtered.TotalTime += e.Time
				filtered.TotalAccesses += e.MemAccesses
			}
			prof = filtered
		}
		x.cand = SelectCandidates(prof, opts.XPercent)
	} else {
		x.cand = AllOpsCandidates(g)
	}
	// Selection-rank decisions, for the metrics dump: how many ops the
	// dual-index rank admitted to the candidate set.
	eng.EmitCount("sched.ops", float64(len(g.Ops)))
	eng.EmitCount("sched.candidates", float64(len(x.cand)))
	x.buildTasks()
	return x, nil
}

// teardown returns the executor's pooled resources: the task arena to
// its template's pool first, then the engine (whose Reset clears any
// stale handler/collector references) — the same order the deferred
// cleanups ran in before runPIM was split. Idempotent.
func (x *exec) teardown() {
	if x.tpl != nil {
		x.tpl.release(x.arena)
		x.tpl, x.arena = nil, nil
	}
	if x.eng != nil {
		sim.Release(x.eng)
		x.eng = nil
	}
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

// max0 clamps a count to zero.
func max0(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

// buildTasks instantiates op x step tasks and wires dependencies. The
// fast path clones a memoized per-(structure, steps, OP) template from
// a pooled arena (template.go); the from-scratch path below remains as
// the reference builder the template path is tested against (and the
// fallback when templates are disabled).
func (x *exec) buildTasks() {
	if !templatesOff.Load() {
		x.tpl = templateFor(x.g, x.opts.Steps, x.opts.OP)
		x.arena = x.tpl.acquire(x.g)
		x.tasks = x.arena.byStep
		x.stepLeft = x.arena.stepLeft
		x.heldBack = x.arena.heldBack
		return
	}
	x.buildTasksScratch()
}

// buildTasksScratch builds the task DAG from scratch. All tasks live in
// one contiguous slab and all dependency-edge slices are carved from a
// second slab sized by a degree-counting pre-pass, so the whole graph
// costs a handful of allocations instead of one per task plus repeated
// append growth per edge.
func (x *exec) buildTasksScratch() {
	steps := x.opts.Steps
	n := len(x.g.Ops)
	// Out-degrees: same-step dependents, and (no-OP mode only)
	// cross-step dependents of the previous step's instance.
	outDeg := make([]int, n)
	crossDeg := make([]int, n)
	sameEdges, crossEdges := 0, 0
	for _, op := range x.g.Ops {
		for _, in := range op.Inputs {
			outDeg[in]++
			sameEdges++
		}
		if !x.opts.OP {
			for _, cs := range op.CrossStep {
				crossDeg[cs]++
				crossEdges++
			}
		}
	}
	slab := make([]task, steps*n)
	ptrs := make([]*task, steps*n)
	edgeSlab := make([]*task, steps*sameEdges+max0(steps-1)*crossEdges)
	x.tasks = make([][]*task, steps)
	x.stepLeft = make([]int, steps)
	x.heldBack = make([][]*task, steps)
	off := 0
	for s := 0; s < steps; s++ {
		x.tasks[s] = ptrs[s*n : (s+1)*n]
		x.stepLeft[s] = n
		for _, op := range x.g.Ops {
			t := &slab[s*n+op.ID]
			t.op, t.step = op, s
			// Carve the outs slice at its exact final capacity.
			deg := outDeg[op.ID]
			if s < steps-1 && !x.opts.OP {
				deg += crossDeg[op.ID]
			}
			t.outs = edgeSlab[off : off : off+deg]
			off += deg
			x.tasks[s][op.ID] = t
		}
	}
	for s := 0; s < steps; s++ {
		for _, op := range x.g.Ops {
			t := x.tasks[s][op.ID]
			for _, in := range op.Inputs {
				src := x.tasks[s][in]
				src.outs = append(src.outs, t)
				t.deps++
			}
			// Cross-step weight gates: under OP the runtime
			// double-buffers parameter updates so next-step forward
			// work can start on in-flight weights (the paper's
			// next-step partial execution, Section III-C); without OP
			// the step barrier subsumes the gates, so the explicit
			// edges are only wired for the strict (no-OP) mode.
			if s > 0 && !x.opts.OP {
				for _, cs := range op.CrossStep {
					src := x.tasks[s-1][cs]
					src.outs = append(src.outs, t)
					t.deps++
				}
			}
		}
	}
}

// admitted reports whether tasks of the given step may start.
func (x *exec) admitted(step int) bool {
	if !x.opts.OP {
		return step == x.firstOpen
	}
	return step < x.firstOpen+x.opts.PipelineDepth
}

// seed dispatches every dependency-free task of admissible steps.
func (x *exec) seed() {
	for s := range x.tasks {
		for _, t := range x.tasks[s] {
			if t.deps == 0 {
				x.maybeDispatch(t)
			}
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
	prof := &x.ops[t.op.ID].prof
	isCand := x.cand[t.op.ID]
	if x.opts.HostOnlyOps[t.op.ID] {
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
	granule := t.op.UnitGranule
	if granule <= 0 {
		granule = 1
	}
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

// trace emits one scheduling-decision line when tracing is enabled and
// feeds the placement census.
func (x *exec) trace(t *task) {
	if c := x.opts.Census; c != nil {
		switch t.path {
		case pathFixed:
			c.Fixed[string(t.op.Type)]++
		case pathProg:
			c.Prog[string(t.op.Type)]++
		default:
			c.CPU[string(t.op.Type)]++
		}
	}
	if x.eng.Observing() {
		counters := [...]string{"sched.path.cpu", "sched.path.prog", "sched.path.fixed"}
		x.eng.EmitCount(counters[t.path], 1)
		// Pipeline occupancy: how many steps are in flight when this
		// placement happens (1 without OP, up to PipelineDepth with).
		x.eng.EmitSample("pipeline.steps_in_flight", float64(t.step-x.firstOpen+1))
	}
	if x.opts.Trace == nil {
		return
	}
	names := [...]string{"cpu", "prog", "fixed"}
	fmt.Fprintf(x.opts.Trace, "t=%.9f step=%d op=%s path=%s\n",
		x.eng.Now(), t.step, t.op.Name, names[t.path])
}

// complete marks a task done and wakes its dependents; when a step
// drains it may open admission for held-back steps.
func (x *exec) complete(t *task) {
	x.stepLeft[t.step]--
	for _, d := range t.outs {
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
			// Keep the backing array (the pooled arena reuses it); no
			// append can land on heldBack[s] while held is walked —
			// dispatch never re-holds a task synchronously.
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
		if x.eng.Observing() {
			x.eng.EmitSample(d.queueMetric, float64(d.pending()))
			x.eng.EmitTaskStart(sim.Task{Track: d.name, Name: w.t.op.Name, Kind: "op", Step: w.t.step})
		}
		if err := x.eng.AfterEv(w.dur, sim.Ev{
			Kind: evItemDone, A: d.idx, N: int32(w.slots), Start: x.eng.Now(), Ptr: w.t,
		}); err != nil {
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

// HandleEvent dispatches the executor's typed events (the closure-free
// replacements of the old scheduled callbacks). Each case preserves the
// exact statement order of the closure it replaced — the golden tables
// are bit-sensitive to it.
func (x *exec) HandleEvent(ev sim.Ev) {
	t := ev.Ptr.(*task)
	switch ev.Kind {
	case evItemDone:
		d := x.cpu
		if ev.A == devProg {
			d = x.prog
		}
		d.busy -= int(ev.N)
		if x.eng.Observing() {
			x.eng.EmitTaskEnd(sim.Task{Track: d.name, Name: t.op.Name, Kind: "op", Step: t.step, Start: ev.Start})
		}
		x.pumpDevice(d)
		if t.path == pathProg {
			x.completeOffload(t)
		}
		x.complete(t)
	case evStartResidual:
		x.runResidual(t, ev.Flag)
	case evResidualDone:
		if x.eng.Observing() {
			x.eng.EmitTaskEnd(sim.Task{Track: x.residualTrack(), Name: t.op.Name, Kind: "residual", Step: t.step, Start: ev.Start})
		}
		if ev.Flag {
			x.requestSection(t)
		} else {
			x.completeOffload(t)
			x.complete(t)
		}
	case evSectionDone:
		x.sectionDone(t, ev)
	case evSyncGap:
		if t.remFlops > 0 {
			x.requestSection(t)
			return
		}
		// Completion: with RC the programmable PIM notifies the host
		// once; without RC the host already synchronized per kernel.
		if x.opts.RC {
			x.delayEv(x.cfg.FixedPIM.HostSyncOverhead, sim.Ev{Kind: evStartResidual, Flag: false, Ptr: t})
		} else {
			x.runResidual(t, false)
		}
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
	x.enqueue(x.cpu, workItem{dur: w.Time() + overhead, opT: opT, dmT: dmT, t: t})
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
	procs := 1
	if x.opts.WideProgOps {
		procs = nn.ProgParallelismFor(t.op.Type)
		if procs > x.prog.slots {
			procs = x.prog.slots
		}
	}
	w := device.ProgOp(t.op, &x.ops[t.op.ID].prof, x.cfg.ProgPIM, procs, x.stack)
	opT, dmT := splitWork(w)
	x.usage.PIMBytes += t.op.Bytes
	launch := x.cfg.ProgPIM.KernelLaunchOverhead + x.cfg.FixedPIM.HostSyncOverhead
	x.bk.Sync += launch
	procs2 := 1
	if x.opts.WideProgOps {
		procs2 = nn.ProgParallelismFor(t.op.Type)
	}
	x.enqueue(x.prog, workItem{dur: w.Time() + launch, opT: opT, dmT: dmT, slots: procs2, t: t})
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
		x.delayEv(x.cfg.ProgPIM.KernelLaunchOverhead, sim.Ev{Kind: evStartResidual, Flag: true, Ptr: t})
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
	if err := x.eng.AfterEv(half.Time(), sim.Ev{
		Kind: evResidualDone, Flag: before, Start: x.eng.Now(), Ptr: t,
	}); err != nil {
		x.err = err
	}
}

// requestSection tries to grant fixed units for the task's next chunk.
func (x *exec) requestSection(t *task) {
	x.markGrant()
	granule := t.op.UnitGranule
	if granule <= 0 {
		granule = 1
	}
	granule = x.watchClampGranule(granule)
	x.pool.Advance(x.eng.Now())
	avail := x.pool.Available()
	granules := avail / granule
	x.watchQuotient(x.pool.Busy(), granule, granules)
	if granules == 0 {
		x.fixedPending = append(x.fixedPending, t)
		return
	}
	granted := x.pool.Grant(granules * granule)
	x.runSection(t, granted)
}

// popFixedPending removes the head of the fixed-pool wait queue.
func (x *exec) popFixedPending() *task {
	t := x.fixedPending[x.fixedHead]
	x.fixedPending[x.fixedHead] = nil // drop the task reference for the GC
	x.fixedHead++
	if x.fixedHead == len(x.fixedPending) {
		x.fixedPending = x.fixedPending[:0]
		x.fixedHead = 0
	}
	return t
}

// runSection executes one time-quantum chunk on granted units.
func (x *exec) runSection(t *task, granted int) {
	c := &x.ops[t.op.ID]
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
	opT := math.Min(compT, dur)
	x.bk.Operation += opT
	x.bk.DataMovement += dur - opT
	if x.eng.Observing() {
		// One span per granted chunk: the per-bank utilization signal of
		// the Fig. 15 study, as both a timeline lane and a busy-units
		// counter track.
		x.eng.EmitSample("fixed.busy_units", float64(x.pool.Busy()))
		x.eng.EmitTaskStart(sim.Task{Track: "fixed", Name: t.op.Name, Kind: "section", Step: t.step})
	}
	if err := x.eng.AfterEv(dur, sim.Ev{
		Kind: evSectionDone, N: int32(granted),
		F1: chunkFlops, F2: chunkBytes, F3: syncCost,
		Start: x.eng.Now(), Ptr: t,
	}); err != nil {
		x.err = err
	}
}

// sectionDone finishes one granted chunk (the evSectionDone case):
// release the units, account the chunk, hand freed units to waiters,
// and schedule the synchronization gap.
func (x *exec) sectionDone(t *task, ev sim.Ev) {
	granted := int(ev.N)
	x.pool.Advance(x.eng.Now())
	if err := x.pool.Release(granted); err != nil {
		x.err = err
		return
	}
	if x.eng.Observing() {
		x.eng.EmitTaskEnd(sim.Task{Track: "fixed", Name: t.op.Name, Kind: "section", Step: t.step, Start: ev.Start})
		x.eng.EmitSample("fixed.busy_units", float64(x.pool.Busy()))
	}
	t.remFlops -= ev.F1
	t.remBytes -= ev.F2
	if t.remFlops < 1 {
		t.remFlops = 0
	}
	x.pumpFixedPending()
	// The synchronization gap runs with the units already released.
	if err := x.eng.AfterEv(ev.F3, sim.Ev{Kind: evSyncGap, Ptr: t}); err != nil {
		x.err = err
	}
}

// pumpFixedPending hands freed units to waiting sections (the paper's
// "partially executed operations immediately utilize newly released
// fixed-function PIMs").
func (x *exec) pumpFixedPending() {
	for x.fixedHead < len(x.fixedPending) {
		x.markGrant()
		t := x.fixedPending[x.fixedHead]
		granule := t.op.UnitGranule
		if granule <= 0 {
			granule = 1
		}
		granule = x.watchClampGranule(granule)
		granules := x.pool.Available() / granule
		x.watchQuotient(x.pool.Busy(), granule, granules)
		if granules == 0 {
			return
		}
		x.popFixedPending()
		granted := x.pool.Grant(granules * granule)
		x.runSection(t, granted)
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
