package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// randomGraph builds a random but well-formed training-step DAG: random
// op types, random costs, random forward edges, a few cross-step gates.
func randomGraph(rng *rand.Rand, nOps int) *nn.Graph {
	types := []nn.OpType{
		nn.OpConv2D, nn.OpConv2DBackpropFilter, nn.OpConv2DBackpropInput,
		nn.OpMatMul, nn.OpBiasAdd, nn.OpBiasAddGrad, nn.OpRelu, nn.OpReluGrad,
		nn.OpMaxPool, nn.OpMaxPoolGrad, nn.OpApplyAdam, nn.OpMul, nn.OpAdd,
		nn.OpSlice, nn.OpReshape, nn.OpSum, nn.OpBatchNorm, nn.OpSoftmax,
	}
	granules := []int{1, 7, 16, 17, 31, 49, 127, 241}
	g := &nn.Graph{
		Model:          fmt.Sprintf("random-%d", nOps),
		BatchSize:      8,
		InputBytes:     1e6,
		GPUUtilization: 0.5,
	}
	for i := 0; i < nOps; i++ {
		op := nn.Op{
			Name:        fmt.Sprintf("op%d", i),
			Type:        types[rng.Intn(len(types))],
			Muls:        math.Floor(rng.Float64() * 1e9),
			Adds:        math.Floor(rng.Float64() * 1e9),
			OtherFlops:  math.Floor(rng.Float64() * 1e7),
			Bytes:       math.Floor(rng.Float64()*1e8) + 1,
			UnitGranule: granules[rng.Intn(len(granules))],
		}
		// Random backward edges keep the graph acyclic.
		for j := 0; j < i && len(op.Inputs) < 3; j++ {
			if rng.Float64() < 2.0/float64(i+1) {
				op.Inputs = append(op.Inputs, rng.Intn(i))
			}
		}
		if op.Type == nn.OpApplyAdam {
			op.Params = true
		}
		g.AddOp(op)
	}
	// Wire a few cross-step gates from early ops to late Adam ops.
	for _, op := range g.Ops {
		if op.Params && rng.Float64() < 0.5 {
			target := g.Ops[rng.Intn(len(g.Ops))]
			if target.ID != op.ID {
				target.CrossStep = append(target.CrossStep, op.ID)
			}
		}
	}
	return g
}

// TestRandomGraphsNeverDeadlock drives the DES executor over many random
// DAGs under every option combination and checks the global invariants:
// completion, positive step time, exact breakdown accounting, bounded
// utilization. The oracle (oracle_test.go) checks every run as it
// happens, here and in the other random-graph tests.
func TestRandomGraphsNeverDeadlock(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	kinds := []hw.ConfigKind{hw.ConfigProgrPIM, hw.ConfigFixedPIM, hw.ConfigHeteroPIM}
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 5+rng.Intn(60))
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced an invalid graph: %v", trial, err)
		}
		for _, kind := range kinds {
			opts, _ := PIMOptionsFor(kind)
			r := runChecked(t, fmt.Sprintf("trial %d on %v", trial, kind), g, hw.PaperConfigScaled(kind, 1), opts)
			if r.StepTime <= 0 || math.IsNaN(r.StepTime) || math.IsInf(r.StepTime, 0) {
				t.Fatalf("trial %d on %v: step time %v", trial, kind, r.StepTime)
			}
			if d := math.Abs(r.Breakdown.Total() - r.StepTime); d > 1e-6*r.StepTime {
				t.Fatalf("trial %d on %v: breakdown %g != step %g", trial, kind, r.Breakdown.Total(), r.StepTime)
			}
			if r.FixedUtilization < 0 || r.FixedUtilization > 1+1e-9 {
				t.Fatalf("trial %d on %v: utilization %g out of [0,1]", trial, kind, r.FixedUtilization)
			}
			if r.Usage.CPUBusy < 0 || r.Usage.ProgBusy < 0 || r.Usage.FixedBusyUnitSeconds < 0 {
				t.Fatalf("trial %d on %v: negative usage %+v", trial, kind, r.Usage)
			}
		}
	}
}

// TestRandomGraphsOptionMatrix exercises RC/OP/selection/host-only
// combinations on random graphs.
func TestRandomGraphsOptionMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := hw.PaperConfig(hw.ConfigHeteroPIM)
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 30)
		if trial%3 == 0 {
			g.Ops[0].HostOnly, g.Ops[1].HostOnly = true, true
		}
		for _, rc := range []bool{false, true} {
			for _, op := range []bool{false, true} {
				opts := Options{RC: rc, OP: op, UseSelection: trial%2 == 0, Steps: 3}
				r := runChecked(t, fmt.Sprintf("trial %d RC=%v OP=%v", trial, rc, op), g, cfg, opts)
				if r.StepTime <= 0 {
					t.Fatalf("trial %d RC=%v OP=%v: degenerate step", trial, rc, op)
				}
			}
		}
	}
}

// TestRandomGraphsWorkConservation: summed device busy time can never
// exceed capacity x makespan.
func TestRandomGraphsWorkConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := hw.PaperConfig(hw.ConfigHeteroPIM)
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng, 40)
		opts := HeteroOptions()
		opts.Steps = 2
		r := runChecked(t, fmt.Sprintf("trial %d", trial), g, cfg, opts)
		makespan := r.StepTime * float64(r.Steps)
		// The host has 2 op-level slots; prog has its processor count;
		// the pool has its unit count.
		if r.Usage.CPUBusy*float64(r.Steps) > 2*makespan*(1+1e-9) {
			t.Fatalf("trial %d: CPU busy %g exceeds capacity over %g", trial, r.Usage.CPUBusy, makespan)
		}
		// Note: ProgBusy is energy-attributed time and may exceed slot
		// capacity — residual phases are overlapped delays whose busy
		// time is charged without occupying a slot (see runResidual).
		if r.Usage.FixedBusyUnitSeconds*float64(r.Steps) > float64(cfg.FixedPIM.Units)*makespan*(1+1e-9) {
			t.Fatalf("trial %d: fixed busy %g exceeds capacity", trial, r.Usage.FixedBusyUnitSeconds)
		}
	}
}

// TestRandomGraphsDeterministic: identical inputs give identical
// results.
func TestRandomGraphsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 50)
	a, err := Run(hw.ConfigHeteroPIM, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(hw.ConfigHeteroPIM, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.StepTime != b.StepTime || a.Usage != b.Usage {
		t.Fatal("random-graph simulation not deterministic")
	}
}

// TestZeroCostOpsComplete: degenerate graphs (zero flops, zero bytes)
// must still terminate.
func TestZeroCostOpsComplete(t *testing.T) {
	g := &nn.Graph{Model: "zero", BatchSize: 1, GPUUtilization: 0.5}
	prev := -1
	for i := 0; i < 10; i++ {
		op := nn.Op{Name: fmt.Sprintf("z%d", i), Type: nn.OpAdd, UnitGranule: 1}
		if prev >= 0 {
			op.Inputs = []int{prev}
		}
		added := g.AddOp(op)
		prev = added.ID
	}
	for _, kind := range []hw.ConfigKind{hw.ConfigCPU, hw.ConfigGPU, hw.ConfigProgrPIM, hw.ConfigFixedPIM, hw.ConfigHeteroPIM} {
		r, err := Run(kind, g, 1)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if math.IsNaN(r.StepTime) {
			t.Fatalf("%v: NaN step time", kind)
		}
	}
}
