// Package core implements the paper's primary contribution: the
// heterogeneous-PIM runtime system (Section III-C / IV-C). It contains
// the step-1 CPU profiler, the dual-index offload-candidate selection,
// the three-principle scheduler with its two key techniques — recursive
// PIM kernels (RC) and the cross-step operation pipeline (OP) — and the
// trace-driven executors for all five evaluated platform configurations.
package core

import (
	"slices"
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

// TypeTotal is one op type's part of a profiled training step.
type TypeTotal struct {
	Type nn.OpType
	// Ops counts the type's operations (Table I's invocations).
	Ops int
	// Time and MemAccesses sum the type's profile entries.
	Time        hw.Seconds
	MemAccesses float64
}

// TypeProfile is a step profile summed per op type, the form Table I
// and Fig. 2 read it in (Table I aggregates invocations by type).
type TypeProfile struct {
	// Types holds one total per op type, in type-name order.
	Types []TypeTotal
	// TotalTime and TotalAccesses are the profile's step totals.
	TotalTime     hw.Seconds
	TotalAccesses float64
	// Classes is the graph's Fig. 2 tally (nn.Graph.ClassCounts).
	Classes map[nn.Class]int
}

// typeProfile sums prof, the profile of g, per op type, in op order.
func typeProfile(g *nn.Graph, prof StepProfile) TypeProfile {
	out := TypeProfile{TotalTime: prof.TotalTime, TotalAccesses: prof.TotalAccesses, Classes: g.ClassCounts()}
	idx := map[nn.OpType]int{}
	for _, e := range prof.Entries {
		op := g.Ops[e.OpID]
		i, ok := idx[op.Type]
		if !ok {
			i = len(out.Types)
			idx[op.Type] = i
			out.Types = append(out.Types, TypeTotal{Type: op.Type})
		}
		t := &out.Types[i]
		t.Ops++
		t.Time += e.Time
		t.MemAccesses += e.MemAccesses
	}
	sort.Slice(out.Types, func(i, j int) bool { return out.Types[i].Type < out.Types[j].Type })
	return out
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
	candidates := map[int]bool{}
	for _, id := range selectOps(prof, xPercent) {
		candidates[id] = true
	}
	return candidates
}

// selectOps is SelectCandidates's selection, as the selected op IDs in
// rank order.
func selectOps(prof StepProfile, xPercent float64) []int {
	n := len(prof.Entries)
	if n == 0 || xPercent <= 0 {
		return nil
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
	var ids []int
	target := prof.TotalTime * xPercent / 100
	var acc hw.Seconds
	for _, pos := range order {
		if acc >= target {
			break
		}
		e := prof.Entries[pos]
		ids = append(ids, e.OpID)
		acc += e.Time
	}
	return ids
}

// withoutHostOnly drops g's HostOnly ops from prof: host-pinned
// operations (the Section VI-F non-CNN job) are not offload candidates,
// so they must not eat the x% selection budget. prof may be the shared
// cached profile, so a filtered profile is a fresh copy; a graph with
// no HostOnly op gets prof back.
func withoutHostOnly(g *nn.Graph, prof StepProfile) StepProfile {
	if !slices.ContainsFunc(g.Ops, func(op *nn.Op) bool { return op.HostOnly }) {
		return prof
	}
	out := StepProfile{Entries: make([]ProfileEntry, 0, len(prof.Entries))}
	for _, e := range prof.Entries {
		if g.Ops[e.OpID].HostOnly {
			continue
		}
		out.Entries = append(out.Entries, e)
		out.TotalTime += e.Time
		out.TotalAccesses += e.MemAccesses
	}
	return out
}
