package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/pim"
	"heteropim/internal/sim"
)

// Delta simulation: the event timeline of a PIM run is independent of
// the fixed-function unit budget until the first capacity grant — every
// earlier scheduling decision reads the pool only through predicates
// ("are there units at all?", "are at least `granule` units idle?")
// whose outcomes a watch records as replay constraints. A design-space
// sweep that varies ONLY the unit budget can therefore simulate the
// shared prefix once, freeze the complete executor state at the event
// boundary before the first grant, and fork each sibling candidate from
// the checkpoint, replaying just the suffix. The fork is bit-identical
// to a from-scratch run of the same candidate (checkpoint_test.go pins
// this across platforms and models):
//
//   - the engine restores its event heap verbatim and continues the
//     sequence counter, so event order and tie-breaks match exactly
//     (sim.Checkpoint);
//   - the task DAG is rebuilt by the same builder and its mutable
//     scalars overwritten from the snapshot; events, queued work items
//     and the fixed-pool wait queue name tasks by slab index, which
//     resolves to the same task in the fork's own DAG;
//   - the register file resumes from a deep copy with its slots,
//     generations and free list, so the fork issues the same tokens
//     (pim.RegistersSnapshot);
//   - the pool's utilization integral is replayed advance-by-advance so
//     the fork accumulates its OWN unit budget over the same piecewise
//     intervals, reproducing the float sum a scratch run computes
//     (pim.Pool.ReplayHistory — the recorded busy levels are identical
//     for every budget the checkpoint covers).
//
// The watch's constraints make the reuse sound rather than hopeful: a
// fork whose unit budget would have flipped any recorded predicate is
// refused (Compatible) and must simulate from scratch.
//
// The watch has two modes. The shallow mode (the original delta layer)
// stops at the first capacity grant: everything after it is treated as
// budget-specific. The deep mode keeps watching THROUGH grants: a grant
// computes quotient = available/granule, and every budget that yields
// the same quotient produces the same granted size — so the timeline
// stays shared for the whole quotient window [busy + q*granule,
// busy + (q+1)*granule - 1] and only narrows as further grants observe
// the budget. The watch records each narrowing with the event index it
// happened at; DeltaPlan turns that history into per-budget deepest
// checkpoints.

// watchStep is one range-narrowing: during the 1-based event index
// `processed`, the set of unit budgets indistinguishable from the
// watched run shrank to [min, max].
type watchStep struct {
	processed uint64
	min, max  int
}

// capWatch records a run's unit-budget-sensitive decisions.
type capWatch struct {
	// minUnits/maxUnits bound the unit budgets whose timeline so far is
	// identical to the watched run's.
	minUnits int
	maxUnits int
	// horizon is the 1-based processed index of the event that computed
	// the first capacity grant; 0 while no grant has happened. Shallow
	// hooks are no-ops once it is set.
	horizon uint64
	// deep keeps the watch narrowing through grants instead of stopping
	// at the horizon, appending each narrowing to steps.
	deep  bool
	steps []watchStep
}

// watchNarrow intersects the watch's budget window with [lo, hi]
// (lo <= 0 / hi == math.MaxInt mean unconstrained on that side). In
// deep mode every effective narrowing is stamped with the current event
// index; in shallow mode narrowing stops at the horizon.
func (x *exec) watchNarrow(lo, hi int) {
	w := x.watch
	if w == nil || (!w.deep && w.horizon != 0) {
		return
	}
	changed := false
	if lo > w.minUnits {
		w.minUnits = lo
		changed = true
	}
	if hi < w.maxUnits {
		w.maxUnits = hi
		changed = true
	}
	if changed && w.deep {
		w.steps = append(w.steps, watchStep{processed: x.eng.Processed(), min: w.minUnits, max: w.maxUnits})
	}
}

// watchCollapse pins the window to the run's own budget — used when a
// decision reads the exact Total() (the granule clamp), which no other
// budget reproduces.
func (x *exec) watchCollapse() {
	u := x.pool.Total()
	x.watchNarrow(u, u)
}

// poolHasUnits reports Total() > 0 for dispatch's fixed-eligibility
// check, recording the predicate's outcome as a replay constraint.
func (x *exec) poolHasUnits() bool {
	ok := x.pool.Total() > 0
	if ok {
		x.watchNarrow(1, math.MaxInt)
	} else {
		x.watchNarrow(0, 0)
	}
	return ok
}

// availAtLeast reports Available() >= n for dispatch's opportunistic
// check. Available is Total - busy, and busy is identical for every
// budget still in the watch window (their grant sizes have all matched
// so far), so the comparison resolves the same way for another budget
// exactly when that budget is on the same side of busy + n — recorded
// as a replay constraint.
func (x *exec) availAtLeast(n int) bool {
	ok := x.pool.Available() >= n
	busy := x.pool.Busy()
	if ok {
		x.watchNarrow(busy+n, math.MaxInt)
	} else {
		x.watchNarrow(0, busy+n-1)
	}
	return ok
}

// watchClampGranule applies the pool-size clamp to a section's granule,
// recording the clamp comparison: budgets at or above the granule keep
// the op's own granule; a budget below it substitutes the exact Total,
// which only the run's own budget reproduces.
func (x *exec) watchClampGranule(granule int) int {
	if granule > x.pool.Total() {
		x.watchCollapse()
		return x.pool.Total()
	}
	x.watchNarrow(granule, math.MaxInt)
	return granule
}

// watchQuotient records a grant computation: quotient = avail/granule
// with busy units already held. Every budget in [busy + q*granule,
// busy + (q+1)*granule - 1] computes the same quotient — and therefore
// the same granted size — so the window narrows to exactly that
// interval (a zero quotient pins the budget below busy + granule).
func (x *exec) watchQuotient(busy, granule, quotient int) {
	if quotient == 0 {
		x.watchNarrow(0, busy+granule-1)
		return
	}
	x.watchNarrow(busy+quotient*granule, busy+(quotient+1)*granule-1)
}

// markGrant flags the first capacity-grant computation: in shallow mode
// the event executing right now is where the shareable timeline prefix
// ends. Deep watches keep going — the grant's quotient window is
// recorded by watchQuotient instead.
func (x *exec) markGrant() {
	if w := x.watch; w != nil && !w.deep && w.horizon == 0 {
		w.horizon = x.eng.Processed()
	}
}

// devSnap freezes a serial device: occupancy, energy integral and the
// live queue window.
type devSnap struct {
	busy        int
	busySeconds float64
	items       []workItem
}

// RunCheckpoint is a frozen executor prefix, reusable across the unit
// budgets in [UnitRange]. It is immutable once captured: one checkpoint
// may be replayed concurrently by any number of goroutines.
type RunCheckpoint struct {
	g    *nn.Graph
	opts Options // normalized
	// maskedCfg is the base configuration with the replay-variable
	// fields (Name, FixedPIM.Units) zeroed — the compatibility contract
	// in canonical bytes.
	maskedCfg []byte

	minUnits, maxUnits int

	eng       sim.Checkpoint
	tasks     []taskState // [step*n + opID]
	stepLeft  []int
	heldBack  [][]int32
	firstOpen int
	cpu, prog devSnap
	regs      *pim.RegistersSnapshot
	poolAdv   []pim.PoolAdvance
	poolBusy  int
	poolGrant int
	fixedWait []int32 // the fixed pool's wait queue

	bk      Breakdown
	usage   Usage
	offload int
	cpuOps  int
}

// UnitRange returns the inclusive bounds of fixed-unit budgets the
// checkpoint replays exactly.
func (c *RunCheckpoint) UnitRange() (min, max int) { return c.minUnits, c.maxUnits }

// SharedEvents returns how many events the checkpointed prefix covers —
// the per-fork event savings of a replay.
func (c *RunCheckpoint) SharedEvents() uint64 { return c.eng.Processed() }

// maskedConfigJSON canonicalizes a configuration for the compatibility
// check, zeroing the fields a replay is allowed to vary.
func maskedConfigJSON(cfg hw.SystemConfig) []byte {
	cfg.Name = ""
	cfg.FixedPIM.Units = 0
	b, err := json.Marshal(cfg)
	if err != nil {
		return nil
	}
	return b
}

// snapDevice freezes a serial device's live state.
func snapDevice(d *serialDevice) devSnap {
	return devSnap{busy: d.busy, busySeconds: d.busySeconds, items: slices.Clone(d.queue[d.head:])}
}

// restoreDevice loads a device snapshot into a fresh device.
func restoreDevice(d *serialDevice, s devSnap) {
	d.busy = s.busy
	d.busySeconds = s.busySeconds
	d.queue = append(d.queue[:0], s.items...)
	d.head = 0
}

// CheckpointRun simulates (g, cfg, opts) to completion while watching
// for the first unit-budget-dependent event, then re-runs the shared
// prefix and freezes it. It returns the full run's result (published to
// the result cache, bit-identical to RunPIM's) and, when the run has a
// divergence point with a non-trivial prefix, a checkpoint for forking
// sibling candidates. A nil checkpoint with a nil error means the run
// offers nothing to share — callers fall back to full simulations.
// Instrumented options are refused: a replayed prefix cannot re-emit
// side effects.
func CheckpointRun(g *nn.Graph, cfg hw.SystemConfig, opts Options) (*RunCheckpoint, Result, error) {
	opts = opts.withDefaults()
	if opts.Collector != nil || opts.Trace != nil {
		return nil, Result{}, fmt.Errorf("core: delta simulation requires an uninstrumented run")
	}
	if opts.Stacks > 1 {
		// A sharded multi-stack run has no single engine to checkpoint.
		// Degrade gracefully: run it (cached) with no shareable
		// checkpoint, so DSE sweeps fall back to full simulations.
		res, err := RunPIM(g, cfg, opts)
		return nil, res, err
	}
	x, err := newExec(g, cfg, opts)
	if err != nil {
		return nil, Result{}, err
	}
	w := &capWatch{maxUnits: math.MaxInt}
	x.watch = w
	x.seed()
	res, err := x.drainRun()
	if err != nil {
		return nil, Result{}, err
	}
	if resultCacheUsable(opts) {
		storeResult(fingerprintRun(tagPIM, g, cfg, opts, nil), res)
	}
	if w.horizon <= 1 {
		// The budget diverges at the very first event (or never grants
		// while still constraining); nothing worth sharing.
		return nil, res, nil
	}
	cp, cerr := captureAt(g, cfg, opts, w.horizon-1, false)
	if cerr != nil {
		// Degrade gracefully: the sweep falls back to full simulations.
		return nil, res, nil
	}
	return cp, res, nil
}

// captureAt re-runs the prefix and freezes the executor after exactly
// stopAfter events. The capture run carries its own watch, so the
// recorded constraints cover precisely the frozen prefix. A shallow
// capture refuses a point at or past the first grant — under the
// shallow contract that state is already budget-specific. A deep
// capture may freeze held grants and a non-empty fixed-pool wait queue
// (both reproduced verbatim by Replay), but refuses a point whose watch
// window has narrowed to the base budget alone: no sibling could ever
// replay it.
func captureAt(g *nn.Graph, cfg hw.SystemConfig, opts Options, stopAfter uint64, deep bool) (*RunCheckpoint, error) {
	x, err := newExec(g, cfg, opts)
	if err != nil {
		return nil, err
	}
	w := &capWatch{maxUnits: math.MaxInt, deep: deep}
	x.watch = w
	x.pool.RecordAdvances(true)
	x.seed()
	if err := x.eng.RunUntil(stopAfter); err != nil {
		return nil, err
	}
	if x.err != nil {
		return nil, x.err
	}
	if !deep {
		if x.pool.Grants() != 0 || x.pool.Busy() != 0 {
			return nil, fmt.Errorf("core: checkpoint point is past the first fixed-pool grant")
		}
		if x.fixedHead != len(x.fixedPending) {
			return nil, fmt.Errorf("core: checkpoint with tasks waiting on the fixed pool")
		}
	} else if w.minUnits >= w.maxUnits {
		return nil, fmt.Errorf("core: checkpoint point is budget-specific (window [%d, %d])",
			w.minUnits, w.maxUnits)
	}
	cp := &RunCheckpoint{
		g:         g,
		opts:      opts,
		maskedCfg: maskedConfigJSON(cfg),
		minUnits:  w.minUnits,
		maxUnits:  w.maxUnits,
		eng:       x.eng.Checkpoint(),
		tasks:     make([]taskState, len(x.tasks)),
		stepLeft:  append([]int(nil), x.stepLeft...),
		heldBack:  make([][]int32, len(x.heldBack)),
		firstOpen: x.firstOpen,
		cpu:       snapDevice(x.cpu),
		prog:      snapDevice(x.prog),
		regs:      x.regs.Snapshot(),
		poolAdv:   x.pool.AdvanceHistory(),
		poolBusy:  x.pool.Busy(),
		poolGrant: x.pool.Grants(),
		fixedWait: slices.Clone(x.fixedPending[x.fixedHead:]),
		bk:        x.bk,
		usage:     x.usage,
		offload:   x.offload,
		cpuOps:    x.cpuOps,
	}
	for i := range x.tasks {
		cp.tasks[i] = x.tasks[i].taskState
	}
	for s, held := range x.heldBack {
		for _, t := range held {
			cp.heldBack[s] = append(cp.heldBack[s], x.ref(t))
		}
	}
	return cp, nil
}

// Compatible reports whether cfg2 may be replayed from this checkpoint:
// identical to the base configuration except for the name and a fixed
// unit budget inside the watched range.
func (c *RunCheckpoint) Compatible(cfg2 hw.SystemConfig) error {
	if u := cfg2.FixedPIM.Units; u < c.minUnits || u > c.maxUnits {
		return fmt.Errorf("core: unit budget %d outside the checkpoint's replay range [%d, %d]",
			u, c.minUnits, c.maxUnits)
	}
	if !bytes.Equal(maskedConfigJSON(cfg2), c.maskedCfg) {
		return fmt.Errorf("core: configuration differs from the checkpoint base beyond the fixed unit budget")
	}
	return nil
}

// Replay resumes the checkpoint under cfg2 and simulates the suffix to
// completion. The result is bit-identical to RunPIM(g, cfg2, opts) run
// from scratch, and is published to the result cache under that cell's
// fingerprint.
func (c *RunCheckpoint) Replay(cfg2 hw.SystemConfig) (Result, error) {
	if err := c.Compatible(cfg2); err != nil {
		return Result{}, err
	}
	x, err := newExec(c.g, cfg2, c.opts)
	if err != nil {
		return Result{}, err
	}
	for i := range x.tasks {
		x.tasks[i].taskState = c.tasks[i]
	}
	copy(x.stepLeft, c.stepLeft)
	for s := range x.heldBack {
		hb := x.heldBack[s][:0]
		for _, idx := range c.heldBack[s] {
			hb = append(hb, &x.tasks[idx])
		}
		x.heldBack[s] = hb
	}
	x.firstOpen = c.firstOpen
	restoreDevice(x.cpu, c.cpu)
	restoreDevice(x.prog, c.prog)
	x.regs = c.regs.NewRegisters()
	if err := x.pool.ReplayHistory(c.poolAdv, c.poolBusy, c.poolGrant); err != nil {
		return Result{}, err
	}
	x.fixedPending = append(x.fixedPending[:0], c.fixedWait...)
	x.fixedHead = 0
	x.bk = c.bk
	x.usage = c.usage
	x.offload = c.offload
	x.cpuOps = c.cpuOps
	if err := x.eng.Restore(c.eng); err != nil {
		return Result{}, err
	}
	res, err := x.drainRun()
	if err == nil && resultCacheUsable(c.opts) {
		storeResult(fingerprintRun(tagPIM, c.g, cfg2, c.opts, nil), res)
	}
	return res, err
}
