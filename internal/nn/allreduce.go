package nn

import (
	"fmt"
	"sync"
)

// Gradient all-reduce schedules for data-parallel multi-stack training.
//
// When a training step is sharded across M stacks, every stack holds a
// full gradient of P = Graph.ParamBytes after its backward pass and the
// stacks must agree on the sum before the weight update. The two
// classic schedules are expressed here as task-graph templates — an
// ordered list of phases, each a set of simultaneous point-to-point
// transfers — so the simulator core can time them phase by phase
// without knowing the algorithms.
//
//   - ring: 2(M-1) phases of P/M-byte chunks around a ring
//     (reduce-scatter then all-gather). Bandwidth-optimal: each stack
//     sends 2P(M-1)/M bytes total, but pays 2(M-1) link latencies.
//   - tree: a binomial reduction to stack 0 followed by the mirrored
//     broadcast, 2*ceil(log2 M) phases of full-P messages.
//     Latency-optimal for small gradients, bandwidth-suboptimal for
//     large ones.
//
// Both schedules move 2(M-1)*P bytes across the links in total.

// AllReduceKind names a gradient all-reduce schedule.
type AllReduceKind string

const (
	// AllReduceRing is the bandwidth-optimal ring schedule
	// (reduce-scatter + all-gather).
	AllReduceRing AllReduceKind = "ring"
	// AllReduceTree is the latency-optimal binomial-tree schedule
	// (reduce to root + broadcast).
	AllReduceTree AllReduceKind = "tree"
)

// ParseAllReduceKind maps a user-facing string to a schedule kind.
func ParseAllReduceKind(s string) (AllReduceKind, error) {
	switch AllReduceKind(s) {
	case AllReduceRing, AllReduceTree:
		return AllReduceKind(s), nil
	case "":
		return AllReduceRing, nil
	}
	return "", fmt.Errorf("nn: unknown all-reduce schedule %q (want ring or tree)", s)
}

// AllReducePhase is one synchronous step of the schedule: every listed
// transfer proceeds in parallel, and the next phase starts only when
// all of them have finished. Frac is the fraction of the gradient each
// transfer carries.
type AllReducePhase struct {
	Frac      float64
	Transfers [][2]int // {src, dst} stack indexes
}

// AllReduceTemplate returns the phase list for kind over stacks peers.
// Templates are memoized: repeated calls for the same (kind, stacks)
// return the same shared slice, so callers must not mutate it.
func AllReduceTemplate(kind AllReduceKind, stacks int) ([]AllReducePhase, error) {
	if stacks < 2 {
		return nil, fmt.Errorf("nn: all-reduce needs at least 2 stacks, got %d", stacks)
	}
	switch kind {
	case AllReduceRing, AllReduceTree:
	default:
		return nil, fmt.Errorf("nn: unknown all-reduce schedule %q", kind)
	}
	key := allReduceKey{kind: kind, stacks: stacks}
	if v, ok := allReduceTemplates.Load(key); ok {
		return v.([]AllReducePhase), nil
	}
	var phases []AllReducePhase
	switch kind {
	case AllReduceRing:
		phases = ringPhases(stacks)
	case AllReduceTree:
		phases = treePhases(stacks)
	}
	v, _ := allReduceTemplates.LoadOrStore(key, phases)
	return v.([]AllReducePhase), nil
}

type allReduceKey struct {
	kind   AllReduceKind
	stacks int
}

var allReduceTemplates sync.Map // allReduceKey -> []AllReducePhase

// ringPhases builds the reduce-scatter + all-gather ring: 2(M-1)
// phases, each with every stack passing a P/M chunk to its successor.
func ringPhases(m int) []AllReducePhase {
	phases := make([]AllReducePhase, 0, 2*(m-1))
	for p := 0; p < 2*(m-1); p++ {
		tr := make([][2]int, m)
		for i := 0; i < m; i++ {
			tr[i] = [2]int{i, (i + 1) % m}
		}
		phases = append(phases, AllReducePhase{Frac: 1.0 / float64(m), Transfers: tr})
	}
	return phases
}

// treePhases builds the binomial reduce-to-root then broadcast:
// ceil(log2 M) rounds each way, full-gradient messages. Works for any
// M, not just powers of two (skewed pairs just sit out a round).
func treePhases(m int) []AllReducePhase {
	var reduce []AllReducePhase
	for step := 1; step < m; step *= 2 {
		var tr [][2]int
		for i := 0; i+step < m; i += 2 * step {
			tr = append(tr, [2]int{i + step, i})
		}
		reduce = append(reduce, AllReducePhase{Frac: 1, Transfers: tr})
	}
	phases := make([]AllReducePhase, 0, 2*len(reduce))
	phases = append(phases, reduce...)
	// Broadcast mirrors the reduction in reverse order with the
	// transfer directions flipped.
	for p := len(reduce) - 1; p >= 0; p-- {
		tr := make([][2]int, len(reduce[p].Transfers))
		for i, t := range reduce[p].Transfers {
			tr[i] = [2]int{t[1], t[0]}
		}
		phases = append(phases, AllReducePhase{Frac: 1, Transfers: tr})
	}
	return phases
}

// ShardBatches splits a global minibatch across stacks for data-parallel
// training: stack i trains batch/stacks samples, with the remainder
// spread over the lowest stack indexes so shard 0 is always a largest
// shard (the property the DSE lower bound relies on).
func ShardBatches(batch, stacks int) ([]int, error) {
	if stacks < 1 {
		return nil, fmt.Errorf("nn: stack count must be >= 1, got %d", stacks)
	}
	if batch < stacks {
		return nil, fmt.Errorf("nn: cannot shard batch %d across %d stacks (need batch >= stacks)", batch, stacks)
	}
	out := make([]int, stacks)
	for i := range out {
		out[i] = batch / stacks
		if i < batch%stacks {
			out[i]++
		}
	}
	return out, nil
}
