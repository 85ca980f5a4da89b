package core

import (
	"sync"
	"sync/atomic"

	"heteropim/internal/fnv1a"
	"heteropim/internal/nn"
)

// Task-graph templates: the op x step task DAG RunPIM executes depends
// only on the graph's STRUCTURE (op count, Inputs, CrossStep edges) and
// two options (Steps, OP — cross-step edges are only wired without the
// operation pipeline). Every cell of a sweep that re-simulates the same
// model therefore rebuilds an identical DAG. A template captures that
// structure once — initial dependency counts and a prefix-compressed
// out-edge list — and instantiation clones it into a pooled arena of
// slab-allocated tasks, resetting only the per-run mutable fields.
//
// Determinism contract: an instantiated arena is wired in exactly the
// order buildTasksScratch wires a fresh graph (per source: same-step
// dependents in (step, op, input) iteration order, then cross-step
// dependents), so template and scratch runs are bit-identical — an
// invariant the core tests assert.

// templateKey identifies one task-graph shape. Structure is keyed by
// content (like the profile cache): model/batch/op-count plus an FNV-1a
// digest of the dependency lists, so rebuilt and synthetic graphs with
// identical structure share one template.
type templateKey struct {
	model  string
	batch  int
	ops    int
	steps  int
	op     bool
	digest uint64
}

// structDigest hashes the graph fields that determine task-DAG shape.
func structDigest(g *nn.Graph) uint64 {
	h := uint64(fnv1a.Offset)
	for _, op := range g.Ops {
		h = fnv1a.Mix(h, uint64(len(op.Inputs)))
		for _, in := range op.Inputs {
			h = fnv1a.Mix(h, uint64(in))
		}
		h = fnv1a.Mix(h, uint64(len(op.CrossStep)))
		for _, cs := range op.CrossStep {
			h = fnv1a.Mix(h, uint64(cs))
		}
	}
	return h
}

// taskTemplate is the immutable per-(structure, steps, OP) blueprint:
// initial dep counts and out-edges as slab indices (index = step*n+opID),
// plus a pool of ready-to-reset arenas.
type taskTemplate struct {
	n, steps int
	// deps[i] is task i's initial dependency count.
	deps []int32
	// outIdx[outStart[i]:outStart[i+1]] are the slab indices of task i's
	// dependents, in scratch wiring order.
	outStart []int32
	outIdx   []int32
	pool     sync.Pool // *taskArena
}

// taskArena is one instantiation: a task slab with outs wired as
// pointers into the same slab, and the executor's per-step bookkeeping.
// The pointer wiring is stable across reuse (the slab never moves), so
// re-acquiring an arena only resets scalar fields.
type taskArena struct {
	slab     []task
	all      []*task   // [step*n + opID]: &slab[i], the executor's exec.all
	byStep   [][]*task // [step][opID], rows of all
	stepLeft []int
	heldBack [][]*task
}

// templateEntry is one cache slot; once guards the single build.
type templateEntry struct {
	once sync.Once
	tpl  *taskTemplate
}

var templateCache sync.Map // templateKey -> *templateEntry

// templatesOff disables the template path (tests compare against the
// from-scratch builder; 0 = enabled).
var templatesOff atomic.Bool

// setTaskTemplates toggles the template fast path, returning the
// previous state (true = enabled).
func setTaskTemplates(on bool) bool {
	return !templatesOff.Swap(!on)
}

// ResetTaskTemplates drops every cached template and its pooled arenas
// (tests and servers churning through many synthetic graphs).
func ResetTaskTemplates() {
	templateCache.Range(func(k, _ any) bool {
		templateCache.Delete(k)
		return true
	})
}

// templateFor returns the memoized template for (g's structure, steps,
// op), building it at most once across goroutines.
func templateFor(g *nn.Graph, steps int, op bool) *taskTemplate {
	key := templateKey{
		model:  g.Model,
		batch:  g.BatchSize,
		ops:    len(g.Ops),
		steps:  steps,
		op:     op,
		digest: structDigest(g),
	}
	v, _ := templateCache.LoadOrStore(key, &templateEntry{})
	e := v.(*templateEntry)
	e.once.Do(func() { e.tpl = buildTemplate(g, steps, op) })
	return e.tpl
}

// buildTemplate records dep counts and out-edges in the exact order
// buildTasksScratch would wire them.
func buildTemplate(g *nn.Graph, steps int, op bool) *taskTemplate {
	n := len(g.Ops)
	slabLen := steps * n
	deps := make([]int32, slabLen)
	outs := make([][]int32, slabLen)
	total := 0
	for s := 0; s < steps; s++ {
		for _, o := range g.Ops {
			dst := int32(s*n + o.ID)
			for _, in := range o.Inputs {
				src := s*n + in
				outs[src] = append(outs[src], dst)
				deps[dst]++
				total++
			}
			// Cross-step edges only without OP (see buildTasksScratch).
			if s > 0 && !op {
				for _, cs := range o.CrossStep {
					src := (s-1)*n + cs
					outs[src] = append(outs[src], dst)
					deps[dst]++
					total++
				}
			}
		}
	}
	tpl := &taskTemplate{
		n:        n,
		steps:    steps,
		deps:     deps,
		outStart: make([]int32, slabLen+1),
		outIdx:   make([]int32, 0, total),
	}
	for i, l := range outs {
		tpl.outStart[i] = int32(len(tpl.outIdx))
		tpl.outIdx = append(tpl.outIdx, l...)
	}
	tpl.outStart[slabLen] = int32(len(tpl.outIdx))
	return tpl
}

// newArena clones the template into fresh slabs: one task slab, one
// pointer slab (all, shared by every byStep row) and one edge slab every
// task's outs alias.
func (tpl *taskTemplate) newArena() *taskArena {
	slabLen := tpl.steps * tpl.n
	a := &taskArena{
		slab:     make([]task, slabLen),
		all:      make([]*task, slabLen),
		byStep:   make([][]*task, tpl.steps),
		stepLeft: make([]int, tpl.steps),
		heldBack: make([][]*task, tpl.steps),
	}
	for i := range a.slab {
		a.all[i] = &a.slab[i]
	}
	edges := make([]*task, len(tpl.outIdx))
	for i, d := range tpl.outIdx {
		edges[i] = a.all[d]
	}
	for i := range a.slab {
		t := &a.slab[i]
		t.step = i / tpl.n
		t.outs = edges[tpl.outStart[i]:tpl.outStart[i+1]]
	}
	for s := 0; s < tpl.steps; s++ {
		a.byStep[s] = a.all[s*tpl.n : (s+1)*tpl.n]
	}
	return a
}

// acquire returns an arena wired for g, pooled when available. Only the
// per-run mutable fields are reset; step, outs and byStep survive reuse.
func (tpl *taskTemplate) acquire(g *nn.Graph) *taskArena {
	a, _ := tpl.pool.Get().(*taskArena)
	if a == nil {
		a = tpl.newArena()
	}
	for i := range a.slab {
		t := &a.slab[i]
		t.op = g.Ops[i%tpl.n]
		t.taskState = taskState{deps: int(tpl.deps[i])}
	}
	for s := range a.stepLeft {
		a.stepLeft[s] = tpl.n
		a.heldBack[s] = a.heldBack[s][:0]
	}
	return a
}

// release drops the arena's graph references and returns it to the pool.
func (tpl *taskTemplate) release(a *taskArena) {
	if a == nil {
		return
	}
	for i := range a.slab {
		a.slab[i].op = nil
	}
	tpl.pool.Put(a)
}
