package heteropim

import (
	"context"
	"errors"
	"fmt"

	"heteropim/internal/batch"
	"heteropim/internal/core"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/sim"
)

// BatchCell describes one simulation: a model on a configuration, with
// the optional axes the paper's studies vary. It is the one cell type
// of the package — Simulate runs one, BatchRun many, and the scenario
// compiler, the CLIs and the serving daemon all emit it.
type BatchCell struct {
	Config Config
	Model  Model
	// BatchSize overrides the model's paper batch size when > 0 (for a
	// multi-stack cell, the global batch split across the stacks). It
	// does not combine with Variant or Processors.
	BatchSize int
	// FreqScale is the PIM/stack PLL multiplier; 0 means 1.
	FreqScale float64
	// Variant, when non-nil, runs the Hetero PIM platform with the
	// RC/OP techniques individually toggled (Config is ignored).
	Variant *Variant
	// Processors, when > 0, runs Hetero PIM with that many programmable
	// processors at constant logic-die area (Config is ignored).
	Processors int
	// Stacks, when > 1, shards the minibatch across that many stacks
	// (data-parallel training; PIM configurations only, and a global
	// batch of at least Stacks samples). AllReduce picks the gradient
	// schedule (AllReduceRing, AllReduceTree, or "" for ring).
	Stacks    int
	AllReduce string
}

// validate rejects cells whose axes do not combine.
func (c BatchCell) validate() error {
	switch {
	case c.Variant != nil && c.Processors > 0:
		return errors.New("Variant and Processors are mutually exclusive")
	case c.Processors < 0:
		return fmt.Errorf("need at least one processor, got %d", c.Processors)
	case c.BatchSize != 0 && (c.Variant != nil || c.Processors > 0):
		return fmt.Errorf("batch size %d does not combine with Variant or Processors", c.BatchSize)
	}
	return nil
}

// Simulate runs one cell: the package's one entry point into the
// simulator. With m == nil the run is uninstrumented and served through
// the result cache. With a non-nil m it runs live and records its
// timeline and metrics into m, which may be read concurrently while the
// run executes (for a multi-stack cell: stack 0 and the all-reduce).
// Either way the Result is bit-identical.
func Simulate(c BatchCell, m *Metrics) (Result, error) { return simulate(c, m, nil) }

// simulate is Simulate on src, the source of the cell's graph that the
// cells of a sweep share (nn.ShareNamed), or, if src is nil, on the
// cell's own nn.Named source.
func simulate(c BatchCell, m *Metrics, src nn.Source) (Result, error) {
	if err := c.validate(); err != nil {
		return Result{}, fmt.Errorf("heteropim: %w", err)
	}
	sched, err := nn.ParseAllReduceKind(c.AllReduce)
	if err != nil {
		return Result{}, err
	}
	// The graph is looked up by its memoized digest and built only if
	// the cell runs: a cached cell builds none.
	if src == nil {
		if src, err = nn.Named(c.Model, c.BatchSize); err != nil {
			return Result{}, err
		}
	}
	scale := c.FreqScale
	if scale == 0 {
		scale = 1
	}
	kind := c.Config
	if c.Variant != nil || c.Processors > 0 {
		kind = ConfigHeteroPIM
	}
	cfg := hw.PaperConfigScaled(kind, scale)
	if c.Processors > 0 {
		cfg = hw.HeteroConfigWithProcessors(c.Processors, scale)
	}
	var obs sim.Collector
	if m != nil {
		obs = m.c
	}
	opts, pim := core.PIMOptionsFor(kind)
	if !pim {
		if c.Stacks > 1 {
			return Result{}, fmt.Errorf("core: multi-stack training needs a PIM platform, got %v", kind)
		}
		r, err := core.RunOnWithCollector(kind, src, cfg, obs)
		if err != nil {
			return Result{}, err
		}
		return wrap(r), nil
	}
	if c.Variant != nil {
		opts.RC, opts.OP = c.Variant.RecursiveKernels, c.Variant.OperationPipeline
	}
	if c.Stacks > 1 {
		opts.Stacks, opts.AllReduce = c.Stacks, sched
	}
	opts.Collector = obs
	r, err := core.RunPIM(src, cfg, opts)
	if err != nil {
		return Result{}, err
	}
	if c.Variant != nil {
		r.Config.Name = fmt.Sprintf("Hetero PIM(RC=%v,OP=%v)", c.Variant.RecursiveKernels, c.Variant.OperationPipeline)
		if r.Stacks > 1 {
			r.Config.Name += fmt.Sprintf(" x%d", r.Stacks)
		}
	}
	return wrap(r), nil
}

// BatchRun evaluates the cells on the shared worker pool and returns
// their results in input order — bit-identical to calling Simulate per
// cell sequentially. Cells sharing a model, batch size and pipeline
// options are grouped: one leader per group runs first and warms the
// profile cache, then the rest fan out (internal/batch). Group and
// leader counts are reported through batch.ReadStats alongside the
// simulation-cache counters. Cells of one model and batch size share
// one source, so the call builds each graph its uncached cells run at
// most once, and lets it go when the last of those cells is done.
func BatchRun(cells []BatchCell) ([]Result, error) {
	srcs := nn.ShareNamed(len(cells), func(i int) (nn.ModelName, int) { return cells[i].Model, cells[i].BatchSize })
	bc := make([]batch.Cell[Result], len(cells))
	for i, c := range cells {
		c := c
		if err := c.validate(); err != nil {
			return nil, fmt.Errorf("heteropim: cell %d: %w", i, err)
		}
		op := c.Config == ConfigHeteroPIM || c.Variant != nil || c.Processors > 0
		if c.Variant != nil {
			op = c.Variant.OperationPipeline
		}
		bc[i] = batch.Cell[Result]{
			Group: batch.GroupKey(string(c.Model), c.BatchSize, 4, op, 2),
			Run: func(context.Context) (Result, error) {
				src := srcs[i]
				srcs[i] = nil
				return simulate(c, nil, src)
			},
		}
	}
	return batch.Eval(context.Background(), bc)
}

// BatchStats reports the grouped-evaluation and DSE-pruning counters
// accumulated since the last ResetBatchStats (cells evaluated, groups,
// leader warm-ups; DSE candidates, pruned, simulated).
type BatchStats = batch.Stats

// BatchRunStats reads the process's batch-evaluation counters.
func BatchRunStats() BatchStats { return batch.ReadStats() }

// ResetBatchStats zeroes the batch-evaluation counters.
func ResetBatchStats() { batch.ResetStats() }
