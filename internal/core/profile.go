// Package core implements the paper's primary contribution: the
// heterogeneous-PIM runtime system (Section III-C / IV-C). It contains
// the step-1 CPU profiler, the dual-index offload-candidate selection,
// the three-principle scheduler with its two key techniques — recursive
// PIM kernels (RC) and the cross-step operation pipeline (OP) — and the
// trace-driven executors for all five evaluated platform configurations.
package core

import (
	"sort"

	"heteropim/internal/device"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// ProfileEntry is what the runtime learns about one operation during
// the profiling step: execution time on the CPU and the number of
// main-memory accesses (LLC-miss-driven), collected with hardware
// counters (Section III-C, Step 1).
type ProfileEntry struct {
	OpID int
	Time hw.Seconds
	// MemAccesses counts 64-byte main-memory accesses.
	MemAccesses float64
}

// StepProfile is the result of profiling one full training step on CPU.
type StepProfile struct {
	Entries []ProfileEntry
	// TotalTime is the summed (serial) execution time of the step.
	TotalTime hw.Seconds
	// TotalAccesses is the summed main-memory access count.
	TotalAccesses float64
}

// ProfileStep executes every operation of the step, one by one, on the
// CPU model, "collecting execution time and the number of main memory
// access level cache misses of each operation". Inter-operation
// parallelism is disabled for accuracy, exactly as in Section II-A.
func ProfileStep(g *nn.Graph, cpu hw.CPUSpec) StepProfile {
	const cacheLine = 64
	prof := StepProfile{Entries: make([]ProfileEntry, 0, len(g.Ops))}
	for _, op := range g.Ops {
		p := nn.ProfileFor(op.Type)
		w := device.CPUOp(op, &p, cpu)
		e := ProfileEntry{OpID: op.ID, Time: w.Time(), MemAccesses: op.Bytes / cacheLine}
		prof.Entries = append(prof.Entries, e)
		prof.TotalTime += e.Time
		prof.TotalAccesses += e.MemAccesses
	}
	return prof
}

// SelectCandidates implements the paper's candidate-selection algorithm
// verbatim: sort the operations into two descending lists (by execution
// time and by main-memory accesses); each operation gets an index in
// each list; the global index is the sum of the two; sort ascending by
// global index (top = both time-consuming AND memory-intensive, the
// feature-selection-inspired rank); finally take top operations until
// they account for x% of the step's execution time (x = 90 in the
// paper's evaluation).
func SelectCandidates(prof StepProfile, xPercent float64) map[int]bool {
	n := len(prof.Entries)
	if n == 0 {
		return map[int]bool{}
	}
	if xPercent <= 0 {
		return map[int]bool{}
	}
	if xPercent > 100 {
		xPercent = 100
	}
	byTime := make([]int, n) // positions into prof.Entries
	byMem := make([]int, n)
	for i := range byTime {
		byTime[i], byMem[i] = i, i
	}
	sort.SliceStable(byTime, func(a, b int) bool {
		return prof.Entries[byTime[a]].Time > prof.Entries[byTime[b]].Time
	})
	sort.SliceStable(byMem, func(a, b int) bool {
		return prof.Entries[byMem[a]].MemAccesses > prof.Entries[byMem[b]].MemAccesses
	})
	globalIdx := make([]int, n)
	for rank, pos := range byTime {
		globalIdx[pos] += rank
	}
	for rank, pos := range byMem {
		globalIdx[pos] += rank
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if globalIdx[order[a]] != globalIdx[order[b]] {
			return globalIdx[order[a]] < globalIdx[order[b]]
		}
		// Deterministic tie-break: the more time-consuming op first.
		return prof.Entries[order[a]].Time > prof.Entries[order[b]].Time
	})
	candidates := map[int]bool{}
	target := prof.TotalTime * xPercent / 100
	var acc hw.Seconds
	for _, pos := range order {
		if acc >= target {
			break
		}
		e := prof.Entries[pos]
		candidates[e.OpID] = true
		acc += e.Time
	}
	return candidates
}

// CandidateSet derives the offload candidates for a graph at the
// paper's x = 90 threshold.
func CandidateSet(g *nn.Graph, cpu hw.CPUSpec) map[int]bool {
	return SelectCandidates(ProfileStep(g, cpu), 90)
}

// AllOpsCandidates marks every op a candidate; the Fixed PIM and Progr
// PIM baselines have no runtime selection — eligibility alone decides
// placement.
func AllOpsCandidates(g *nn.Graph) map[int]bool {
	out := make(map[int]bool, len(g.Ops))
	for _, op := range g.Ops {
		out[op.ID] = true
	}
	return out
}
