// Package batch is the sweep/DSE evaluation engine: it runs large sets
// of independent simulation cells on the shared worker pool, but
// exploits what the cells have in common before fanning out.
//
// Two mechanisms:
//
//   - Grouped evaluation (Eval): cells sharing a (model, batch-size,
//     steps, OP, pipeline-depth) key share, per configuration, the same
//     step-1 profile. One LEADER cell per group runs first and
//     populates the profile cache, so the group's remaining cells fan
//     out against a warm cache instead of stacking up behind its
//     per-entry build lock.
//
//   - Pruned design-space exploration (dse.go): candidates whose
//     admissible analytic lower bound already exceeds the incumbent's
//     simulated objective are discarded without simulating them.
//
// Both report their traffic through a metrics registry (batch.cells,
// batch.groups, batch.leaders, dse.candidates, dse.pruned,
// dse.simulated), surfaced by the CLIs next to the `simcache:` stats
// line.
package batch

import (
	"context"
	"fmt"
	"sync/atomic"

	"heteropim/internal/metrics"
	"heteropim/internal/runner"
)

// Cell is one independent simulation of a sweep.
type Cell[T any] struct {
	// Group keys cells that share a graph and step-1 profile; see
	// GroupKey. Empty groups get no leader (the cell goes
	// straight to the fan-out phase).
	Group string
	// Run executes the cell. It must be an independent, pure
	// computation (the runner.Map contract).
	Run func(ctx context.Context) (T, error)
}

// GroupKey builds the canonical grouping key: the model, the batch size
// (which changes the graph's content digest), and the steps, OP and
// pipeline depth that shape the run's task DAG.
func GroupKey(model string, batchSize, steps int, op bool, pipelineDepth int) string {
	return fmt.Sprintf("%s|b%d|s%d|op%t|d%d", model, batchSize, steps, op, pipelineDepth)
}

// reg is the package's metrics registry; swapped wholesale by
// ResetStats, so loads go through the atomic pointer.
var reg atomic.Pointer[metrics.Registry]

func init() { reg.Store(metrics.NewRegistry()) }

// Registry returns the registry batch/DSE counters are reported to.
func Registry() *metrics.Registry { return reg.Load() }

// ResetStats zeroes every batch/DSE counter.
func ResetStats() { reg.Store(metrics.NewRegistry()) }

// Stats is a snapshot of the package counters.
type Stats struct {
	Cells, Groups, Leaders        int
	Candidates, Pruned, Simulated int
}

// ReadStats snapshots the counters accumulated since the last reset.
func ReadStats() Stats {
	r := Registry()
	return Stats{
		Cells:      int(r.CounterValue("batch.cells")),
		Groups:     int(r.CounterValue("batch.groups")),
		Leaders:    int(r.CounterValue("batch.leaders")),
		Candidates: int(r.CounterValue("dse.candidates")),
		Pruned:     int(r.CounterValue("dse.pruned")),
		Simulated:  int(r.CounterValue("dse.simulated")),
	}
}

// Eval runs the cells and returns their results in input order
// (bit-identical to a sequential loop). Grouped cells are evaluated in
// two phases: one leader per group first — warming the group's profile
// cache entry — then every remaining cell on the full worker
// pool. The first error cancels the remaining cells.
func Eval[T any](ctx context.Context, cells []Cell[T]) ([]T, error) {
	r := Registry()
	r.Add("batch.cells", float64(len(cells)))

	var leaders, rest []int
	seen := map[string]bool{}
	for i, c := range cells {
		if c.Group != "" && !seen[c.Group] {
			seen[c.Group] = true
			leaders = append(leaders, i)
		} else {
			rest = append(rest, i)
		}
	}
	r.Add("batch.groups", float64(len(seen)))
	r.Add("batch.leaders", float64(len(leaders)))

	results := make([]T, len(cells))
	runPhase := func(idx []int) error {
		if len(idx) == 0 {
			return nil
		}
		sub, err := runner.Map(ctx, len(idx), 0,
			func(ctx context.Context, k int) (T, error) { return cells[idx[k]].Run(ctx) })
		if err != nil {
			return err
		}
		for k, v := range sub {
			results[idx[k]] = v
		}
		return nil
	}
	if err := runPhase(leaders); err != nil {
		return nil, err
	}
	if err := runPhase(rest); err != nil {
		return nil, err
	}
	return results, nil
}
