package core

import (
	"fmt"
	"math"
	"sync"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// DeltaPlan is the deep delta-simulation layer: one probe run of the
// base configuration, watched in deep mode, yields a full narrowing
// history — at which event index the set of unit budgets that share the
// base timeline shrank, and to what window. For any sibling budget the
// plan then knows the DEEPEST event boundary whose prefix that budget
// shares, captures a checkpoint there (once per boundary — budgets in
// the same quotient window share the capture), and forks the sibling
// from it. Bit-identity of replay-vs-scratch is inherited from
// RunCheckpoint.Replay; the narrowing history only decides how deep the
// shared prefix reaches.
//
// Compared to the shallow CheckpointRun (which stops at the first
// fixed-pool grant, sharing ~a handful of events), a deep plan keeps
// sharing through every grant whose quotient a sibling budget
// reproduces — on dense unit ladders neighboring budgets often share
// thousands of events, and budgets inside one quotient window share the
// entire run.
type DeltaPlan struct {
	g    *nn.Graph
	cfg  hw.SystemConfig
	opts Options

	baseUnits  int
	probeTotal uint64
	steps      []watchStep

	mu      sync.Mutex
	entries map[uint64]*planEntry
}

// planEntry is one per-boundary checkpoint slot, captured at most once
// no matter how many forks land on the boundary concurrently.
type planEntry struct {
	once sync.Once
	cp   *RunCheckpoint
	err  error
}

// NewDeltaPlan simulates (g, cfg, opts) to completion under a deep
// watch and returns the plan plus the base run's result (published to
// the result cache, bit-identical to RunPIM's). A nil plan with a nil
// error means the run offers nothing to share (multi-stack runs, or a
// timeline that is budget-specific from the first event); callers fall
// back to full simulations. Instrumented options are refused.
func NewDeltaPlan(g *nn.Graph, cfg hw.SystemConfig, opts Options) (*DeltaPlan, Result, error) {
	opts = opts.withDefaults()
	if opts.Collector != nil || opts.Trace != nil {
		return nil, Result{}, fmt.Errorf("core: delta simulation requires an uninstrumented run")
	}
	if opts.Stacks > 1 {
		res, err := RunPIM(g, cfg, opts)
		return nil, res, err
	}
	x, err := newExec(g, cfg, opts)
	if err != nil {
		return nil, Result{}, err
	}
	w := &capWatch{maxUnits: math.MaxInt, deep: true}
	x.watch = w
	x.seed()
	res, err := x.drainRun()
	probeTotal := x.eng.Processed()
	baseUnits := x.pool.Total()
	if err != nil {
		return nil, Result{}, err
	}
	if resultCacheUsable(opts) {
		storeResult(fingerprintRun(tagPIM, g, cfg, opts, nil), res)
	}
	if probeTotal <= 1 {
		return nil, res, nil
	}
	return &DeltaPlan{
		g:          g,
		cfg:        cfg,
		opts:       opts,
		baseUnits:  baseUnits,
		probeTotal: probeTotal,
		steps:      append([]watchStep(nil), w.steps...),
		entries:    map[uint64]*planEntry{},
	}, res, nil
}

// BaseUnits returns the probe run's unit budget.
func (p *DeltaPlan) BaseUnits() int { return p.baseUnits }

// Boundaries returns how many distinct deep-checkpoint boundaries have
// been captured so far (budgets in one quotient window share one).
func (p *DeltaPlan) Boundaries() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// deepestBoundary returns the last event boundary (a processed-event
// count) whose prefix a budget shares with the base run: one event
// before the first narrowing that excluded the budget, or one event
// before the end of the probe when no narrowing ever did (the whole
// timeline is shared; only the pool's own-total integral differs).
func (p *DeltaPlan) deepestBoundary(units int) uint64 {
	for _, s := range p.steps {
		if units < s.min || units > s.max {
			if s.processed <= 1 {
				return 0
			}
			return s.processed - 1
		}
	}
	return p.probeTotal - 1
}

// checkpointAt returns the boundary's checkpoint, capturing it exactly
// once across concurrent forks.
func (p *DeltaPlan) checkpointAt(boundary uint64) (*RunCheckpoint, error) {
	p.mu.Lock()
	e, ok := p.entries[boundary]
	if !ok {
		e = &planEntry{}
		p.entries[boundary] = e
	}
	p.mu.Unlock()
	e.once.Do(func() { e.cp, e.err = captureAt(p.g, p.cfg, p.opts, boundary, true) })
	return e.cp, e.err
}

// Replay forks cfg2 from the deepest checkpoint its unit budget shares
// with the base run and simulates the suffix, returning the result
// (bit-identical to a from-scratch run, published to the result cache)
// and the number of events the shared prefix covered. An error means
// this budget has nothing usable to fork from — the caller falls back
// to a full simulation.
func (p *DeltaPlan) Replay(cfg2 hw.SystemConfig) (Result, uint64, error) {
	boundary := p.deepestBoundary(cfg2.FixedPIM.Units)
	if boundary <= 1 {
		return Result{}, 0, fmt.Errorf("core: budget %d diverges from the base at the first event",
			cfg2.FixedPIM.Units)
	}
	cp, err := p.checkpointAt(boundary)
	if err != nil {
		return Result{}, 0, err
	}
	res, err := cp.Replay(cfg2)
	if err != nil {
		return Result{}, 0, err
	}
	return res, cp.SharedEvents(), nil
}
