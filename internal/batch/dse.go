package batch

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"heteropim/internal/core"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/runner"
)

// Candidate is one point of the hardware design space: a fixed-function
// unit budget, a PLL frequency multiplier and a programmable-processor
// count, all on the Hetero PIM platform.
type Candidate struct {
	Units          int
	FreqScale      float64
	ProgProcessors int
}

// Config materializes the candidate as a full platform description.
func (c Candidate) Config() hw.SystemConfig {
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, c.FreqScale)
	cfg.ProgPIM = hw.PaperProgPIM(c.ProgProcessors)
	cfg.FixedPIM = hw.PaperFixedPIM(c.Units)
	cfg.Name = fmt.Sprintf("Hetero PIM(%du,%gx,%dP)", c.Units, c.FreqScale, c.ProgProcessors)
	return cfg
}

func (c Candidate) String() string {
	return fmt.Sprintf("%du/%gx/%dP", c.Units, c.FreqScale, c.ProgProcessors)
}

// groupKey names a candidate's group: the candidates that differ only in
// their unit budget. Priced bounds, calibration, group references and
// delta checkpoints are kept per group.
type groupKey struct {
	freq  float64
	procs int
}

func (c Candidate) group() groupKey { return groupKey{c.FreqScale, c.ProgProcessors} }

// Explored is one explored candidate. Result is only valid when Simulated
// is true; a pruned candidate carries just its bound.
type Explored struct {
	Candidate Candidate
	Bound     hw.Seconds
	Simulated bool
	Result    core.Result
}

// Exploration is the outcome of one DSE run.
type Exploration struct {
	// Winner is the candidate with the smallest simulated step time
	// (ties broken by input position). Identical between pruned and
	// exhaustive runs — the equivalence the admissible bound buys — and
	// identical with the surrogate on or off, since the surrogate only
	// reorders work.
	Winner Explored
	// Evals holds one entry per candidate, in input order.
	Evals []Explored
	// Pruned and Simulated partition the candidate set.
	Pruned, Simulated int

	// Surrogate telemetry (zero when the surrogate was off).
	SurrogateFitted bool
	SurrogateObs    int
	SeededFromCache int
	SurrogateR2     float64
	SurrogateRank   float64

	// Delta-simulation telemetry (zero when delta was off).
	DeltaCheckpoints int
	DeltaReplays     int
	DeltaShared      uint64
	// DeltaBoundaries counts the distinct deep-checkpoint boundaries
	// captured (zero unless DeepDelta; budgets in one quotient window
	// share a boundary).
	DeltaBoundaries int

	// CalibratedPruned counts prunes the analytic bound alone would NOT
	// have made — the calibrated bound's contribution (zero when
	// calibration was off).
	CalibratedPruned int
}

// DSEOptions selects the exploration strategy. Every combination
// produces the identical winner; the options only change how much work
// finding it costs.
type DSEOptions struct {
	// Prune enables branch-and-bound pruning against the admissible
	// analytic lower bound.
	Prune bool
	// Surrogate orders candidates by a regression fitted on simulated
	// results (seeded from the cross-run result cache when warm), so the
	// true incumbent tends to be simulated in the very first block and
	// the bound prunes maximally early.
	Surrogate bool
	// Delta forks each (FreqScale, ProgProcessors) group from one
	// checkpointed base run, replaying only the unit-budget-dependent
	// suffix per candidate (core.CheckpointRun/Replay). Ignored when
	// Stacks > 1: a sharded run has no single engine to checkpoint
	// (the per-shard result cache already dedups the compute legs).
	Delta bool
	// DeepDelta upgrades the delta layer to deep checkpoints
	// (core.DeltaPlan): instead of stopping at the first fixed-pool
	// grant, each group's probe records its full grant-quotient
	// narrowing history and every sibling forks from the DEEPEST event
	// boundary its unit budget shares with the base. Implies the delta
	// layer even when Delta is false; same Stacks restriction.
	DeepDelta bool
	// Calibrate derives a second admissible bound per (FreqScale,
	// ProgProcessors) group from simulated siblings (calibrate.go):
	// group references — the largest unit budget of each group — are
	// ordered first, and the pruner takes max(analytic, calibrated).
	Calibrate bool
	// Confidence batches likely-prunable candidates last: once the
	// surrogate is fitted, candidates whose prediction exceeds the
	// incumbent by more than twice the fit's residual spread are
	// deferred, so they are usually pruned before ever being reached.
	// No effect without Surrogate.
	Confidence bool
	// Stacks evaluates every candidate as an M-stack data-parallel
	// system (0/1 = the single-stack paper system); AllReduce picks its
	// gradient schedule (default ring). The bound stays admissible —
	// the exploration still provably returns the exhaustive winner.
	Stacks    int
	AllReduce core.ReduceSchedule
}

// dseBlockSize is how many candidates one branch-and-bound round
// simulates in parallel before re-checking the incumbent. A constant
// (rather than the worker count) keeps pruned/simulated counts
// machine-independent.
const dseBlockSize = 8

// deltaGroup is one (FreqScale, ProgProcessors) family sharing a
// checkpointed base run; once gives the checkpoint singleflight. In
// deep mode the group carries a DeltaPlan instead of the single
// first-grant checkpoint.
type deltaGroup struct {
	once      sync.Once
	cp        *core.RunCheckpoint
	plan      *core.DeltaPlan
	base      core.Result
	baseUnits int
	err       error
}

// deltaManager owns the per-group checkpoints of one exploration.
type deltaManager struct {
	deep   bool
	mu     sync.Mutex
	groups map[groupKey]*deltaGroup

	checkpoints atomic.Int64
	replays     atomic.Int64
	shared      atomic.Uint64
}

func (m *deltaManager) group(key groupKey) *deltaGroup {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.groups == nil {
		m.groups = make(map[groupKey]*deltaGroup)
	}
	e := m.groups[key]
	if e == nil {
		e = &deltaGroup{}
		m.groups[key] = e
	}
	return e
}

// run evaluates one candidate of g's exploration through the delta
// layer: the first candidate of a group runs in full and leaves a
// checkpoint; siblings replay its suffix. Every failure mode degrades
// to a plain full simulation — replays are a pure optimization,
// bit-identical when they apply (core/checkpoint_test.go).
func (m *deltaManager) run(g *nn.Graph, c Candidate) (core.Result, error) {
	cfg := c.Config()
	opts := core.HeteroOptions()
	e := m.group(c.group())
	e.once.Do(func() {
		e.baseUnits = c.Units
		if m.deep {
			e.plan, e.base, e.err = core.NewDeltaPlan(g, cfg, opts)
			if e.err == nil && e.plan != nil {
				m.checkpoints.Add(1)
			}
		} else {
			e.cp, e.base, e.err = core.CheckpointRun(g, cfg, opts)
			if e.err == nil && e.cp != nil {
				m.checkpoints.Add(1)
			}
		}
	})
	if e.err == nil && c.Units == e.baseUnits {
		return e.base, nil
	}
	if e.err == nil && e.plan != nil {
		if res, shared, rerr := e.plan.Replay(cfg); rerr == nil {
			m.replays.Add(1)
			m.shared.Add(shared)
			return res, nil
		}
	}
	if e.err == nil && e.cp != nil && e.cp.Compatible(cfg) == nil {
		if res, rerr := e.cp.Replay(cfg); rerr == nil {
			m.replays.Add(1)
			m.shared.Add(e.cp.SharedEvents())
			return res, nil
		}
	}
	return core.RunPIM(g, cfg, opts)
}

// boundaries sums the distinct deep boundaries captured across groups.
func (m *deltaManager) boundaries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.groups {
		if e.plan != nil {
			n += e.plan.Boundaries()
		}
	}
	return n
}

// ExploreDSE finds the candidate minimizing simulated step time for the
// model, under the full Hetero PIM runtime (core.HeteroOptions).
//
// With every option off, each candidate is simulated. With Prune the
// exploration is branch-and-bound: once a candidate's admissible
// StepTimeLowerBound strictly exceeds the incumbent's simulated step
// time, it is discarded unsimulated. Surrogate and Delta stack on top
// (see DSEOptions).
//
// Equivalence argument: the incumbent is a min over simulated
// candidates, so incumbent ≥ the global minimum objective at all
// times. A pruned candidate c has obj(c) ≥ bound(c) > incumbent ≥
// obj(winner) — strictly worse than the winner, so it can neither win
// nor tie. Every mode therefore sees every potentially-winning
// candidate, and the winner is the (objective, input position) minimum
// over the simulated set — a quantity independent of the order the set
// was visited in. The surrogate changes only that order; delta replays
// are bit-identical to full simulations. The winners — and every table
// derived from the winner's Result — are identical across all modes.
func ExploreDSE(ctx context.Context, model nn.ModelName, cands []Candidate, dopts DSEOptions) (Exploration, error) {
	if len(cands) == 0 {
		return Exploration{}, fmt.Errorf("batch: empty candidate set")
	}
	// The exploration builds its model once: the bound, the cache peeks
	// and every candidate's run read this one graph, which simulations
	// only read, so concurrent candidates share it. A Named graph carries
	// its memoized digest, so no lookup hashes it.
	src, err := nn.Named(model, 0)
	if err != nil {
		return Exploration{}, err
	}
	g := src.Graph()
	opts := core.HeteroOptions()
	if dopts.Stacks > 1 {
		opts.Stacks = dopts.Stacks
		opts.AllReduce = dopts.AllReduce
		if opts.AllReduce == "" {
			opts.AllReduce = core.ReduceRing
		}
		dopts.Delta = false
		dopts.DeepDelta = false
	}
	r := Registry()
	r.Add("dse.candidates", float64(len(cands)))

	ex := Exploration{Evals: make([]Explored, len(cands))}
	for i, b := range candidateBounds(g, opts, cands) {
		ex.Evals[i] = Explored{Candidate: cands[i], Bound: b}
	}
	// Group references for the calibrated bound: the LARGEST unit budget
	// of each group (ties to the earliest input position). Simulating a
	// reference certifies a calibrated bound for its whole group, so
	// references go first in every round.
	var cal *calibrator
	isRef := make([]bool, len(cands))
	if dopts.Calibrate {
		cal = newCalibrator()
		refIdx := map[groupKey]int{}
		for i, c := range cands {
			k := c.group()
			if j, ok := refIdx[k]; !ok || c.Units > cands[j].Units {
				refIdx[k] = i
			}
		}
		for _, i := range refIdx {
			isRef[i] = true
		}
	}
	// Canonical order: references first (when calibrating), then bound
	// ascending, input position breaking ties. Once the surrogate fits,
	// rounds also order by confidence and prediction (see below).
	remaining := make([]int, len(cands))
	for i := range remaining {
		remaining[i] = i
	}
	incumbent := math.Inf(1)
	pred := make([]float64, len(cands))
	confident, spread := false, 0.0
	likelyPrunable := func(idx int) bool { return confident && pred[idx]-2*spread > incumbent }
	less := func(a, b int) bool {
		ia, ib := remaining[a], remaining[b]
		if isRef[ia] != isRef[ib] {
			return isRef[ia]
		}
		if pa, pb := likelyPrunable(ia), likelyPrunable(ib); pa != pb {
			return pb
		}
		if pred[ia] != pred[ib] {
			return pred[ia] < pred[ib]
		}
		if ex.Evals[ia].Bound != ex.Evals[ib].Bound {
			return ex.Evals[ia].Bound < ex.Evals[ib].Bound
		}
		return ia < ib
	}
	sort.SliceStable(remaining, less)

	// Seed the surrogate from the cross-run result corpus: cells this
	// process (or a previous run, via the disk tier) already simulated
	// are free ordering information. Seeding never touches the
	// incumbent — cached cells still count as simulations when reached.
	sur := &surrogate{}
	if dopts.Surrogate {
		if ex.SeededFromCache, err = seedSurrogate(ctx, sur, g, cands, opts); err != nil {
			return Exploration{}, err
		}
		sur.fit()
	}
	var mgr *deltaManager
	if dopts.Delta || dopts.DeepDelta {
		mgr = &deltaManager{deep: dopts.DeepDelta}
	}

	winner := -1
	group := GroupKey(g.Model, g.BatchSize, opts.Steps, opts.OP, opts.PipelineDepth)
	firstBlock := true
	for len(remaining) > 0 {
		// Order this round's work. Fitted surrogate: predicted step time,
		// with (bound, input position) tie-breaks. Otherwise the
		// (bound, position) order built above is maintained by the
		// in-place filtering below.
		if sur.fitted {
			for _, idx := range remaining {
				pred[idx] = sur.predict(cands[idx])
			}
			// Confidence ordering: candidates whose prediction clears the
			// incumbent even after a 2-spread error allowance are LIKELY
			// prunable — every simulation before them can only tighten the
			// incumbent or the calibration, so batching them last
			// maximizes the chance they are pruned instead of simulated.
			// Ordering only; admissibility still gates the actual prune.
			if confident = dopts.Confidence && !math.IsInf(incumbent, 1); confident {
				spread = sur.residualSpread()
			}
			sort.SliceStable(remaining, less)
		}
		// The first block is a single candidate: it warms the model's
		// profile cache entry (the Eval leader mechanism) and — being
		// the most promising point under the current ordering — sets a
		// tight incumbent before any parallel fan-out.
		size := 1
		if !firstBlock {
			size = dseBlockSize
		}
		var block []int
		rest := remaining[:0]
		for _, idx := range remaining {
			b := ex.Evals[idx].Bound
			if cal != nil {
				if cb := cal.bound(cands[idx]); cb > b {
					b = cb
				}
			}
			switch {
			case dopts.Prune && b > incumbent:
				// Strictly beaten by the incumbent: can neither win nor tie.
				ex.Pruned++
				if cal != nil && ex.Evals[idx].Bound <= incumbent {
					// The analytic bound alone would not have pruned it.
					ex.CalibratedPruned++
				}
			case len(block) < size:
				block = append(block, idx)
			default:
				rest = append(rest, idx)
			}
		}
		remaining = rest
		if len(block) == 0 {
			break
		}
		cells := make([]Cell[core.Result], len(block))
		for k, idx := range block {
			c := cands[idx]
			grp := group
			if !firstBlock {
				grp = "" // caches are warm; skip the leader phase
			}
			cells[k] = Cell[core.Result]{Group: grp, Run: func(ctx context.Context) (core.Result, error) {
				if mgr != nil {
					return mgr.run(g, c)
				}
				return core.RunPIM(g, c.Config(), opts)
			}}
		}
		results, err := Eval(ctx, cells)
		if err != nil {
			return Exploration{}, err
		}
		for k, idx := range block {
			ev := &ex.Evals[idx]
			ev.Simulated = true
			ev.Result = results[k]
			ex.Simulated++
			obj := results[k].StepTime
			if obj < incumbent || (obj == incumbent && idx < winner) {
				incumbent = obj
				winner = idx
			}
			if dopts.Surrogate {
				sur.add(cands[idx], obj)
			}
			if cal != nil {
				cal.observe(cands[idx], obj)
			}
		}
		if dopts.Surrogate {
			sur.fit()
		}
		firstBlock = false
	}
	r.Add("dse.pruned", float64(ex.Pruned))
	r.Add("dse.simulated", float64(ex.Simulated))
	if dopts.Surrogate {
		ex.SurrogateFitted = sur.fitted
		ex.SurrogateObs = len(sur.obs)
		ex.SurrogateR2 = sur.r2()
		if sur.fitted {
			var pred, act []float64
			for i := range ex.Evals {
				if ex.Evals[i].Simulated {
					pred = append(pred, sur.predict(cands[i]))
					act = append(act, ex.Evals[i].Result.StepTime)
				}
			}
			ex.SurrogateRank = spearman(pred, act)
		}
		r.Add("dse.surrogate.obs", float64(ex.SurrogateObs))
		r.Add("dse.surrogate.seeded", float64(ex.SeededFromCache))
		r.Set("dse.surrogate.r2", ex.SurrogateR2)
		r.Set("dse.surrogate.rank", ex.SurrogateRank)
	}
	if mgr != nil {
		ex.DeltaCheckpoints = int(mgr.checkpoints.Load())
		ex.DeltaReplays = int(mgr.replays.Load())
		ex.DeltaShared = mgr.shared.Load()
		r.Add("dse.delta.checkpoints", float64(ex.DeltaCheckpoints))
		r.Add("dse.delta.replays", float64(ex.DeltaReplays))
		r.Add("dse.delta.shared_events", float64(ex.DeltaShared))
		if mgr.deep {
			ex.DeltaBoundaries = mgr.boundaries()
			r.Add("dse.delta.boundaries", float64(ex.DeltaBoundaries))
		}
	}
	if cal != nil {
		r.Add("dse.calibrated.pruned", float64(ex.CalibratedPruned))
	}
	ex.Winner = ex.Evals[winner]
	return ex, nil
}

// seedSurrogate adds to sur every candidate the result cache holds, in
// input order, and returns how many it held. The peeks run on the
// worker pool: each one encodes its configuration to address the cache.
func seedSurrogate(ctx context.Context, sur *surrogate, g *nn.Graph, cands []Candidate, opts core.Options) (int, error) {
	type peek struct {
		step hw.Seconds
		ok   bool
	}
	peeks, err := runner.Map(ctx, len(cands), 0, func(_ context.Context, i int) (peek, error) {
		res, ok := core.PeekPIMResult(g, cands[i].Config(), opts)
		return peek{res.StepTime, ok}, nil
	})
	seeded := 0
	for i, p := range peeks {
		if p.ok {
			sur.add(cands[i], p.step)
			seeded++
		}
	}
	return seeded, err
}
