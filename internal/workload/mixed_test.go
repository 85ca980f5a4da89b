package workload

import (
	"testing"

	"heteropim/internal/nn"
)

func TestMixedCasesAreSix(t *testing.T) {
	cases := MixedCases()
	if len(cases) != 6 {
		t.Fatalf("Fig. 16 has six co-run cases, got %d", len(cases))
	}
	seen := map[string]bool{}
	for _, c := range cases {
		if seen[c.Name()] {
			t.Fatalf("duplicate case %s", c.Name())
		}
		seen[c.Name()] = true
		if c.NonCNN != nn.LSTMName && c.NonCNN != nn.Word2VecName {
			t.Errorf("%s: non-CNN side must be LSTM or Word2vec", c.Name())
		}
	}
}

func TestCombineMergesGraphs(t *testing.T) {
	a := nn.AlexNet()
	b := nn.Word2Vec()
	g, err := Combine(a, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Ops) != len(a.Ops)+3*len(b.Ops) {
		t.Fatalf("combined ops = %d, want %d", len(g.Ops), len(a.Ops)+3*len(b.Ops))
	}
	restricted := 0
	for _, op := range g.Ops {
		if op.HostOnly {
			restricted++
		}
	}
	if restricted != 3*len(b.Ops) {
		t.Fatalf("restricted = %d, want %d", restricted, 3*len(b.Ops))
	}
	// Only the b side is restricted.
	for i := 0; i < len(a.Ops); i++ {
		if g.Ops[i].HostOnly {
			t.Fatalf("CNN op %d restricted", i)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Copies are chained: copy 1's sources depend on copy 0 ops.
	base1 := len(a.Ops) + len(b.Ops)
	foundChain := false
	for i := base1; i < base1+len(b.Ops); i++ {
		for _, in := range g.Ops[i].Inputs {
			if in >= len(a.Ops) && in < base1 {
				foundChain = true
			}
		}
	}
	if !foundChain {
		t.Fatal("second copy not chained to the first")
	}
}

func TestCombineRejectsZeroCopies(t *testing.T) {
	a := nn.AlexNet()
	if _, err := Combine(a, a, 0); err == nil {
		t.Fatal("zero copies must error")
	}
}

func TestScaleGraph(t *testing.T) {
	g := nn.Word2Vec()
	s := ScaleGraph(g, 10)
	if len(s.Ops) != len(g.Ops) {
		t.Fatal("scaling must not change op count")
	}
	for i, op := range s.Ops {
		if op.Muls != 10*g.Ops[i].Muls || op.Bytes != 10*g.Ops[i].Bytes {
			t.Fatalf("op %d not scaled", i)
		}
	}
	// k < 1 clamps.
	s2 := ScaleGraph(g, 0.5)
	if s2.Ops[0].Bytes != g.Ops[0].Bytes {
		t.Fatal("k<1 must clamp to 1")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunMixedImprovesOverSequential(t *testing.T) {
	// One fast case end to end; the full six run in the benchmark
	// harness.
	r, err := RunMixed(MixedCase{CNN: nn.AlexNetName, NonCNN: nn.LSTMName})
	if err != nil {
		t.Fatal(err)
	}
	if r.CoRun <= 0 || r.Sequential <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if r.CoRun >= r.Sequential {
		t.Fatalf("co-run (%g) must beat sequential (%g)", r.CoRun, r.Sequential)
	}
	// Fig. 16 band is 69-83%; allow a loose floor for this reproduction.
	if r.Improvement < 0.4 {
		t.Errorf("improvement %.0f%%, want substantial (paper: 69-83%%)", r.Improvement*100)
	}
	if r.NonCNNSteps < 1 {
		t.Error("non-CNN share missing")
	}
}

func TestRunMixedWord2vecCase(t *testing.T) {
	r, err := RunMixed(MixedCase{CNN: nn.AlexNetName, NonCNN: nn.Word2VecName})
	if err != nil {
		t.Fatal(err)
	}
	if r.Improvement < 0.3 {
		t.Errorf("improvement %.0f%%, want substantial", r.Improvement*100)
	}
}

func TestMultiTenantCoRun(t *testing.T) {
	res, err := RunMultiTenant([]TenantSpec{
		{Model: nn.AlexNetName},
		{Model: nn.DCGANName},
		{Model: nn.Word2VecName, HostOnly: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Standalone) != 3 {
		t.Fatalf("standalone entries = %d", len(res.Standalone))
	}
	if res.CoRun >= res.Sequential {
		t.Fatalf("co-run (%g) must beat sequential (%g)", res.CoRun, res.Sequential)
	}
	if res.Improvement <= 0.1 {
		t.Errorf("multi-tenant improvement %.0f%%, want substantial", res.Improvement*100)
	}
	// Co-run can never beat the longest single job.
	longest := 0.0
	for _, s := range res.Standalone {
		if s > longest {
			longest = s
		}
	}
	if res.CoRun < longest*0.99 {
		t.Fatalf("co-run (%g) faster than the longest job (%g) — impossible", res.CoRun, longest)
	}
}

func TestMultiTenantNeedsTwoJobs(t *testing.T) {
	if _, err := RunMultiTenant([]TenantSpec{{Model: nn.AlexNetName}}); err == nil {
		t.Fatal("single tenant must error")
	}
}

func TestMultiTenantSlowdowns(t *testing.T) {
	res, err := RunMultiTenant([]TenantSpec{
		{Model: nn.AlexNetName},
		{Model: nn.Word2VecName, HostOnly: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slowdowns) != 2 {
		t.Fatalf("slowdowns = %v", res.Slowdowns)
	}
	for i, s := range res.Slowdowns {
		// Sharing can never make a tenant faster than solo, and the
		// whole point is that it costs far less than 2x.
		if s < 0.99 || s > 2.2 {
			t.Errorf("tenant %d slowdown %.2f out of the plausible band", i, s)
		}
	}
}
