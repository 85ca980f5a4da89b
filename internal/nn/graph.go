package nn

import (
	"fmt"
	"sort"
	"sync"

	"heteropim/internal/fnv1a"
)

// Op is one operation instance inside a training step graph.
type Op struct {
	// ID is the index of the op within its Graph.
	ID int
	// Name is the framework-style instance name, e.g.
	// "conv3_2/Conv2DBackpropFilter".
	Name string
	Type OpType

	// Muls and Adds are the multiply/add counts per invocation — the
	// work the fixed-function PIMs can absorb.
	Muls, Adds float64
	// OtherFlops is arithmetic that is not plain multiply/add
	// (comparisons, exponentials, divisions) — programmable-core work.
	OtherFlops float64
	// Bytes is the operation's main-memory traffic per invocation.
	Bytes float64
	// UnitGranule is the number of individual fixed-function units
	// (multipliers + adders) one kernel instance of this op occupies:
	// the paper's 11x11 convolution example occupies 121 multipliers
	// and 120 adders = 241 units. Grants come in multiples of this.
	UnitGranule int
	// Params marks weight-update ops (ApplyAdam): their completion
	// gates the corresponding forward op of the NEXT step.
	Params bool
	// Inputs are IDs of ops inside the same step that must complete
	// first.
	Inputs []int
	// CrossStep are IDs of ops whose *previous-step* instance must
	// complete first (used for weight updates gating the next step's
	// forward ops).
	CrossStep []int
	// HostOnly restricts the op to the CPU and the programmable PIM:
	// it is never an offload candidate and never runs on the
	// fixed-function pool. The mixed-workload study runs its non-CNN
	// model this way (Section VI-F: "the non-CNN model executes on CPU
	// or the programmable PIM, when they are idle").
	HostOnly bool
}

// TotalFlops returns all arithmetic of the op.
func (o *Op) TotalFlops() float64 { return o.Muls + o.Adds + o.OtherFlops }

// Graph is one training step of a model: a DAG of operations.
type Graph struct {
	Model string
	// BatchSize is the paper's per-model batch size.
	BatchSize int
	Ops       []*Op
	// InputBytes is the size of one minibatch of training data (what a
	// GPU must move across PCIe every step).
	InputBytes float64
	// ParamBytes is the total model parameter footprint.
	ParamBytes float64
	// ActivationBytes is the per-step activation working set.
	ActivationBytes float64
	// GPUUnhiddenTransferFrac is the fraction of the activation working
	// set whose host<->GPU transfer cannot be hidden behind compute
	// (Section VI-A; large-working-set models hide less).
	GPUUnhiddenTransferFrac float64
	// GPUUtilization is the average GPU utilization reported for this
	// model in Section V-D.
	GPUUtilization float64
	// GPUEffFactor is a per-model GPU kernel-efficiency calibration
	// constant (cuDNN efficiency varies strongly with layer geometry);
	// it multiplies the per-op GPU compute efficiency. Zero means 1.
	GPUEffFactor float64

	// digest is the content hash Digest computes on its first call.
	digestOnce sync.Once
	digest     fnv1a.Sum128
}

// AddOp appends an op, assigning its ID, and returns it.
func (g *Graph) AddOp(op Op) *Op {
	op.ID = len(g.Ops)
	o := &op
	g.Ops = append(g.Ops, o)
	return o
}

// Validate checks that dependencies are well-formed and acyclic.
func (g *Graph) Validate() error {
	n := len(g.Ops)
	for _, op := range g.Ops {
		for _, in := range op.Inputs {
			if in < 0 || in >= n {
				return fmt.Errorf("nn: %s/%s input %d out of range", g.Model, op.Name, in)
			}
			if in == op.ID {
				return fmt.Errorf("nn: %s/%s depends on itself", g.Model, op.Name)
			}
		}
		for _, cs := range op.CrossStep {
			if cs < 0 || cs >= n {
				return fmt.Errorf("nn: %s/%s cross-step input %d out of range", g.Model, op.Name, cs)
			}
		}
		if op.Muls < 0 || op.Adds < 0 || op.OtherFlops < 0 || op.Bytes < 0 {
			return fmt.Errorf("nn: %s/%s has negative cost", g.Model, op.Name)
		}
		if op.UnitGranule < 0 {
			return fmt.Errorf("nn: %s/%s has negative unit granule", g.Model, op.Name)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a topological order of the step DAG (ignoring
// cross-step edges, which never form cycles within a step).
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.Ops)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, op := range g.Ops {
		for _, in := range op.Inputs {
			succ[in] = append(succ[in], op.ID)
			indeg[op.ID]++
		}
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("nn: %s step graph has a dependency cycle", g.Model)
	}
	return order, nil
}

// TypeSummary aggregates per-type cost over the step.
type TypeSummary struct {
	Type        OpType
	Invocations int
	Muls, Adds  float64
	OtherFlops  float64
	Bytes       float64
}

// SummarizeByType returns per-op-type aggregates sorted by type name.
func (g *Graph) SummarizeByType() []TypeSummary {
	m := map[OpType]*TypeSummary{}
	for _, op := range g.Ops {
		s, ok := m[op.Type]
		if !ok {
			s = &TypeSummary{Type: op.Type}
			m[op.Type] = s
		}
		s.Invocations++
		s.Muls += op.Muls
		s.Adds += op.Adds
		s.OtherFlops += op.OtherFlops
		s.Bytes += op.Bytes
	}
	out := make([]TypeSummary, 0, len(m))
	for _, s := range m {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}

// Totals returns the step-wide flop and byte totals.
func (g *Graph) Totals() (flops, bytes float64) {
	for _, op := range g.Ops {
		flops += op.TotalFlops()
		bytes += op.Bytes
	}
	return flops, bytes
}

// Classify assigns the Fig. 2 class to an op. As in the paper's
// profiling, intensity is judged per operation *type* over the whole
// step (Table I aggregates invocations): a type is compute intensive if
// it holds at least 1% of the step's arithmetic, memory intensive if it
// holds at least 1% of the step's main-memory traffic.
func (g *Graph) Classify(op *Op) Class {
	return g.ClassifyType(op.Type)
}

// ClassifyType is Classify for a whole operation type.
func (g *Graph) ClassifyType(t OpType) Class {
	flops, bytes := g.Totals()
	var tf, tb float64
	for _, op := range g.Ops {
		if op.Type == t {
			tf += op.TotalFlops()
			tb += op.Bytes
		}
	}
	return classify(tf, tb, flops, bytes)
}

// classify is the Fig. 2 rule for a type holding tf of the step's
// flops and tb of its bytes.
func classify(tf, tb, flops, bytes float64) Class {
	ci := flops > 0 && tf >= 0.01*flops
	mi := bytes > 0 && tb >= 0.01*bytes
	switch {
	case ci && mi:
		return Class2
	case ci:
		return Class1
	case mi:
		return Class3
	default:
		return Class4
	}
}

// ClassCounts tallies ops per Fig. 2 class. It classifies each op type
// once, so it walks the graph twice in all rather than twice per op.
func (g *Graph) ClassCounts() map[Class]int {
	type share struct {
		flops, bytes float64
		ops          int
	}
	flops, bytes := g.Totals()
	byType := map[OpType]*share{}
	for _, op := range g.Ops {
		s := byType[op.Type]
		if s == nil {
			s = &share{}
			byType[op.Type] = s
		}
		s.flops += op.TotalFlops()
		s.bytes += op.Bytes
		s.ops++
	}
	out := map[Class]int{}
	for _, s := range byType {
		out[classify(s.flops, s.bytes, flops, bytes)] += s.ops
	}
	return out
}
