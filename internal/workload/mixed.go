// Package workload builds the experiment workloads that go beyond a
// single model: the Section VI-F mixed-workload study, where a CNN
// training model co-runs with a non-CNN model on the same heterogeneous
// PIM system.
package workload

import (
	"context"
	"fmt"

	"heteropim/internal/core"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/runner"
)

// MixedCase is one co-run pairing of Section VI-F.
type MixedCase struct {
	CNN    nn.ModelName
	NonCNN nn.ModelName
}

// Name renders "VGG-19 + LSTM".
func (c MixedCase) Name() string { return string(c.CNN) + " + " + string(c.NonCNN) }

// MixedCases returns the six co-run cases of Fig. 16.
func MixedCases() []MixedCase {
	cnns := []nn.ModelName{nn.VGG19Name, nn.AlexNetName, nn.ResNet50Name}
	nonCNNs := []nn.ModelName{nn.LSTMName, nn.Word2VecName}
	out := make([]MixedCase, 0, len(cnns)*len(nonCNNs))
	for _, c := range cnns {
		for _, n := range nonCNNs {
			out = append(out, MixedCase{CNN: c, NonCNN: n})
		}
	}
	return out
}

// MixedResult is the outcome of one co-run case.
type MixedResult struct {
	Case MixedCase
	// NonCNNSteps is how many non-CNN training steps run per CNN step.
	NonCNNSteps int
	// Sequential is the wall-clock of training the two models one after
	// the other on the heterogeneous PIM system.
	Sequential hw.Seconds
	// CoRun is the wall-clock of the co-scheduled execution: the CNN
	// under the full runtime, the non-CNN restricted to CPU and the
	// programmable PIM.
	CoRun hw.Seconds
	// Improvement is Sequential/CoRun - 1 (the Fig. 16 metric).
	Improvement float64
}

// errCopies is Combine's refusal of a copy count below one.
func errCopies(copies int) error {
	return fmt.Errorf("workload: need at least one copy of the co-run graph, got %d", copies)
}

// Combine merges graph a (scheduled normally) with `copies` sequential
// steps of graph b into one step graph. Every op copied from b is
// HostOnly: the co-run places the non-CNN model on host-side devices.
func Combine(a, b *nn.Graph, copies int) (*nn.Graph, error) {
	if copies < 1 {
		return nil, errCopies(copies)
	}
	g := copyGraph(a, nil)
	g.Model = a.Model + "+" + b.Model
	g.ParamBytes += b.ParamBytes
	g.ActivationBytes += b.ActivationBytes
	prevSinks := []int(nil)
	for copy := 0; copy < copies; copy++ {
		base := len(g.Ops)
		// Track which ops of b have in-copy dependents so copy chaining
		// can hang the next copy off this copy's sinks.
		hasDependent := make([]bool, len(b.Ops))
		for _, op := range b.Ops {
			for _, in := range op.Inputs {
				hasDependent[in] = true
			}
		}
		for _, op := range b.Ops {
			c := *op
			c.Inputs = make([]int, 0, len(op.Inputs)+len(prevSinks))
			for _, in := range op.Inputs {
				c.Inputs = append(c.Inputs, base+in)
			}
			// Sources of copy k>0 wait for copy k-1's sinks (steps of
			// the non-CNN model are sequential).
			if len(op.Inputs) == 0 {
				c.Inputs = append(c.Inputs, prevSinks...)
			}
			c.CrossStep = nil
			c.HostOnly = true
			g.AddOp(c)
		}
		prevSinks = prevSinks[:0]
		for i := range b.Ops {
			if !hasDependent[i] {
				prevSinks = append(prevSinks, base+i)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("workload: combined graph: %w", err)
	}
	return g, nil
}

// ScaleGraph multiplies every operation's work by k, modelling k
// back-to-back training steps of the model as one macro-step (the
// non-CNN job trains continuously; its internal step pipeline amortizes
// per-step dependences).
func ScaleGraph(g *nn.Graph, k float64) *nn.Graph {
	if k < 1 {
		k = 1
	}
	out := copyGraph(g, func(c *nn.Op) {
		c.Muls *= k
		c.Adds *= k
		c.OtherFlops *= k
		c.Bytes *= k
	})
	out.InputBytes *= k
	return out
}

// hostOnly returns a copy of g with every op HostOnly: the Section VI-F
// placement of a non-CNN job.
func hostOnly(g *nn.Graph) *nn.Graph {
	return copyGraph(g, func(c *nn.Op) { c.HostOnly = true })
}

// copyGraph returns a deep copy of g, applying edit (if any) to each
// op's copy once it is added (editing a local copy through a func
// value would move every copy to the heap twice).
func copyGraph(g *nn.Graph, edit func(*nn.Op)) *nn.Graph {
	out := &nn.Graph{
		Model:                   g.Model,
		BatchSize:               g.BatchSize,
		InputBytes:              g.InputBytes,
		ParamBytes:              g.ParamBytes,
		ActivationBytes:         g.ActivationBytes,
		GPUUnhiddenTransferFrac: g.GPUUnhiddenTransferFrac,
		GPUUtilization:          g.GPUUtilization,
		GPUEffFactor:            g.GPUEffFactor,
	}
	for _, op := range g.Ops {
		c := *op
		c.Inputs = append([]int(nil), op.Inputs...)
		c.CrossStep = append([]int(nil), op.CrossStep...)
		added := out.AddOp(c)
		if edit != nil {
			edit(added)
		}
	}
	return out
}

// RunMixed simulates one co-run case on the Hetero PIM platform and its
// sequential-execution baseline. In both modes the non-CNN model runs
// on the CPU and the programmable PIM only (its Section VI-F placement
// policy); the co-run overlaps it with the CNN's PIM execution instead
// of running it afterwards. Every graph is a named model or a recipe
// over named models, so a case whose four cells are cached builds,
// copies and hashes nothing.
func RunMixed(c MixedCase) (MixedResult, error) {
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	cnn, err := nn.Named(c.CNN, 0)
	if err != nil {
		return MixedResult{}, err
	}
	named, err := nn.Named(c.NonCNN, 0)
	if err != nil {
		return MixedResult{}, err
	}
	non := restrictSource(named)
	// Standalone CNN step time under the full runtime.
	cnnRes, err := core.RunPIM(cnn, cfg, core.HeteroOptions())
	if err != nil {
		return MixedResult{}, err
	}
	// Standalone non-CNN step time under its host-only policy.
	nonRes, err := core.RunPIM(non, cfg, core.HeteroOptions())
	if err != nil {
		return MixedResult{}, err
	}
	// Scale the non-CNN job so both trainings have comparable
	// standalone durations (both jobs train continuously; Fig. 16
	// measures steady state). The scale is split between a per-op
	// factor (capped so no single operation becomes a multi-second
	// atomic block the host scheduler cannot interleave) and chained
	// copies of the step graph.
	k := cnnRes.StepTime / nonRes.StepTime
	if k < 1 {
		k = 1
	}
	const maxPerOpScale = 64
	perOp := k
	copies := 1
	if perOp > maxPerOpScale {
		copies = int(k/maxPerOpScale + 0.5)
		if copies < 1 {
			copies = 1
		}
		perOp = k / float64(copies)
	}
	scaled := scaleSource(non, perOp)
	singleRes, err := core.RunPIM(scaled, cfg, core.HeteroOptions())
	if err != nil {
		return MixedResult{}, err
	}
	sequential := cnnRes.StepTime + float64(copies)*singleRes.StepTime

	combined, err := combineSource(cnn, scaled, copies)
	if err != nil {
		return MixedResult{}, err
	}
	opts := core.HeteroOptions()
	opts.Steps = 2 // combined graphs are large; two steady-state steps suffice
	coRes, err := core.RunPIM(combined, cfg, opts)
	if err != nil {
		return MixedResult{}, err
	}
	res := MixedResult{
		Case:        c,
		NonCNNSteps: int(perOp*float64(copies) + 0.5),
		Sequential:  sequential,
		CoRun:       coRes.StepTime,
	}
	if res.CoRun > 0 {
		res.Improvement = res.Sequential/res.CoRun - 1
	}
	return res, nil
}

// RunAllMixed runs the six cases of Fig. 16, fanning the independent
// cases out on the worker pool (results stay in case order).
func RunAllMixed() ([]MixedResult, error) {
	cases := MixedCases()
	out, err := runner.Map(context.Background(), len(cases), 0,
		func(_ context.Context, i int) (MixedResult, error) {
			r, err := RunMixed(cases[i])
			if err != nil {
				return MixedResult{}, fmt.Errorf("workload: %s: %w", cases[i].Name(), err)
			}
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
