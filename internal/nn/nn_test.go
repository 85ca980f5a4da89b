package nn

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func buildAll(t testing.TB) map[ModelName]*Graph {
	t.Helper()
	out := map[ModelName]*Graph{}
	for _, name := range AllModelNames() {
		g, err := Build(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = g
	}
	return out
}

func TestAllModelsBuildAndValidate(t *testing.T) {
	for name, g := range buildAll(t) {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(g.Ops) < 20 {
			t.Errorf("%s: suspiciously small graph (%d ops)", name, len(g.Ops))
		}
		flops, bytes := g.Totals()
		if flops <= 0 || bytes <= 0 {
			t.Errorf("%s: degenerate totals flops=%g bytes=%g", name, flops, bytes)
		}
		if g.GPUUtilization <= 0 || g.GPUUtilization > 1 {
			t.Errorf("%s: GPU utilization %g out of range", name, g.GPUUtilization)
		}
		if g.InputBytes <= 0 {
			t.Errorf("%s: input bytes %g", name, g.InputBytes)
		}
	}
}

func TestBuildUnknownModel(t *testing.T) {
	if _, err := Build("NoSuchNet"); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestVGG19Structure(t *testing.T) {
	g := VGG19()
	counts := map[OpType]int{}
	for _, op := range g.Ops {
		counts[op.Type]++
	}
	// 16 convolution layers, 5 pools, 3 FC layers (Section V-C).
	if counts[OpConv2D] != 16 {
		t.Errorf("Conv2D invocations = %d, want 16", counts[OpConv2D])
	}
	if counts[OpConv2DBackpropFilter] != 16 {
		t.Errorf("Conv2DBackpropFilter invocations = %d, want 16", counts[OpConv2DBackpropFilter])
	}
	// No input gradient for the first conv layer: 15, matching Table I.
	if counts[OpConv2DBackpropInput] != 15 {
		t.Errorf("Conv2DBackpropInput invocations = %d, want 15", counts[OpConv2DBackpropInput])
	}
	if counts[OpMaxPool] != 5 || counts[OpMaxPoolGrad] != 5 {
		t.Errorf("pools = %d/%d, want 5/5", counts[OpMaxPool], counts[OpMaxPoolGrad])
	}
	// 19 Relu activations: 16 conv + 2 of the 3 FC layers + softmax uses
	// none; Table I reports 19 (16 conv + 3 fc in their graph).
	if counts[OpRelu] < 18 {
		t.Errorf("Relu invocations = %d, want >= 18", counts[OpRelu])
	}
	// Every parameter tensor gets an Adam update.
	if counts[OpApplyAdam] != 2*(16+3) {
		t.Errorf("ApplyAdam invocations = %d, want %d", counts[OpApplyAdam], 2*(16+3))
	}
	// VGG-19 has ~143M parameters (ImageNet: 138M conv+fc + fc6 here is
	// 25088x4096); accept the 130M-150M band.
	params := g.ParamBytes / 4
	if params < 130e6 || params > 150e6 {
		t.Errorf("VGG-19 parameters = %g, want ~138M", params)
	}
}

func TestVGG19FlopsBallpark(t *testing.T) {
	g := VGG19()
	// Forward conv MACs for VGG-19 at batch 32 are ~19.5 GMAC/image.
	var fwdMacs float64
	for _, op := range g.Ops {
		if op.Type == OpConv2D {
			fwdMacs += op.Muls
		}
	}
	perImage := fwdMacs / 32
	if perImage < 17e9 || perImage > 22e9 {
		t.Errorf("VGG-19 forward conv MACs/image = %g, want ~19.5G", perImage)
	}
}

func TestAlexNetGranuleMatchesPaperExample(t *testing.T) {
	g := AlexNet()
	// Section III-C: an 11x11 convolution occupies 121 multipliers and
	// 120 adders = 241 fixed-function PIMs.
	found := false
	for _, op := range g.Ops {
		if op.Type == OpConv2D && strings.HasPrefix(op.Name, "conv1/") {
			if op.UnitGranule != 241 {
				t.Errorf("conv1 granule = %d, want 241", op.UnitGranule)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("AlexNet conv1 not found")
	}
}

func TestDCGANHasManySmallOps(t *testing.T) {
	g := DCGAN()
	counts := map[OpType]int{}
	for _, op := range g.Ops {
		counts[op.Type]++
	}
	if counts[OpMul] < 84 {
		t.Errorf("DCGAN Mul invocations = %d, want >= 84 (Table I)", counts[OpMul])
	}
	if counts[OpSlice] < 14 {
		t.Errorf("DCGAN Slice invocations = %d, want >= 14 (Table I)", counts[OpSlice])
	}
	distinct := len(counts)
	if distinct < 15 {
		t.Errorf("DCGAN distinct op types = %d, want a wide mix", distinct)
	}
}

func TestResNet50IsLargestWorkingSet(t *testing.T) {
	models := buildAll(t)
	resnet := models[ResNet50Name]
	for name, g := range models {
		if name == ResNet50Name {
			continue
		}
		if g.ActivationBytes >= resnet.ActivationBytes {
			t.Errorf("%s activation working set (%g) >= ResNet-50 (%g)", name, g.ActivationBytes, resnet.ActivationBytes)
		}
	}
}

func TestTopoOrderRespectsDependencies(t *testing.T) {
	g := VGG19()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(g.Ops))
	for i, id := range order {
		pos[id] = i
	}
	for _, op := range g.Ops {
		for _, in := range op.Inputs {
			if pos[in] >= pos[op.ID] {
				t.Fatalf("op %s scheduled before its input %s", op.Name, g.Ops[in].Name)
			}
		}
	}
}

func TestValidateCatchesCycles(t *testing.T) {
	g := &Graph{Model: "cyclic"}
	a := g.AddOp(Op{Name: "a", Type: OpAdd})
	b := g.AddOp(Op{Name: "b", Type: OpAdd, Inputs: []int{a.ID}})
	a.Inputs = []int{b.ID}
	if err := g.Validate(); err == nil {
		t.Fatal("cycle must be detected")
	}
}

func TestValidateCatchesBadInputs(t *testing.T) {
	g := &Graph{Model: "bad"}
	g.AddOp(Op{Name: "a", Type: OpAdd, Inputs: []int{5}})
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-range input must be detected")
	}
	g2 := &Graph{Model: "bad2"}
	g2.AddOp(Op{Name: "a", Type: OpAdd, Inputs: []int{0}})
	if err := g2.Validate(); err == nil {
		t.Fatal("self-dependency must be detected")
	}
	g3 := &Graph{Model: "bad3"}
	g3.AddOp(Op{Name: "a", Type: OpAdd, Muls: -1})
	if err := g3.Validate(); err == nil {
		t.Fatal("negative cost must be detected")
	}
	g4 := &Graph{Model: "bad4"}
	g4.AddOp(Op{Name: "a", Type: OpAdd, CrossStep: []int{9}})
	if err := g4.Validate(); err == nil {
		t.Fatal("out-of-range cross-step input must be detected")
	}
}

func TestCrossStepGatesExist(t *testing.T) {
	// ApplyAdam of step s must gate the corresponding forward op of
	// step s+1 (the operation-pipeline correctness condition).
	g := VGG19()
	gated := 0
	for _, op := range g.Ops {
		if len(op.CrossStep) > 0 {
			gated++
			for _, cs := range op.CrossStep {
				if g.Ops[cs].Type != OpApplyAdam {
					t.Errorf("%s cross-step gate is %s, want ApplyAdam", op.Name, g.Ops[cs].Type)
				}
			}
		}
	}
	if gated < 16 {
		t.Errorf("only %d forward ops carry cross-step gates", gated)
	}
}

func TestClassificationCoversFourClasses(t *testing.T) {
	g := VGG19()
	counts := g.ClassCounts()
	if counts[Class2] == 0 {
		t.Error("no class-2 (offload target) ops found")
	}
	if counts[Class4] == 0 {
		t.Error("no class-4 (negligible) ops found")
	}
	// Conv backprops must be class 2 (compute AND memory intensive).
	for _, op := range g.Ops {
		if op.Type == OpConv2DBackpropFilter {
			if c := g.Classify(op); c != Class2 {
				t.Errorf("%s classified %d, want 2", op.Name, c)
			}
		}
	}
}

func TestProfileTableConsistency(t *testing.T) {
	for _, tp := range KnownOpTypes() {
		p := ProfileFor(tp)
		if p.Type != tp {
			t.Errorf("%s: profile type mismatch", tp)
		}
		if p.DecomposableFrac < 0 || p.DecomposableFrac > 1 {
			t.Errorf("%s: decomposable fraction %g out of range", tp, p.DecomposableFrac)
		}
		if p.FixedEligible && p.DecomposableFrac == 0 {
			t.Errorf("%s: fixed-eligible but nothing decomposable", tp)
		}
		if !p.FixedEligible && p.DecomposableFrac > 0 {
			t.Errorf("%s: not fixed-eligible but decomposable fraction %g", tp, p.DecomposableFrac)
		}
		for _, eff := range []float64{p.CPUComputeEff, p.CPUBwEff, p.GPUComputeEff, p.GPUBwEff,
			p.ProgComputeEff, p.ProgBwEff, p.FixedComputeEff, p.FixedBwEff} {
			if eff < 0 || eff > 1 {
				t.Errorf("%s: efficiency %g out of range", tp, eff)
			}
		}
		if ProgParallelismFor(tp) < 1 {
			t.Errorf("%s: prog parallelism < 1", tp)
		}
	}
}

func TestProfileForUnknownType(t *testing.T) {
	p := ProfileFor("SomethingNew")
	if !p.ProgEligible || p.FixedEligible {
		t.Fatal("unknown ops must fall back to programmable-only")
	}
}

func TestSummarizeByType(t *testing.T) {
	g := AlexNet()
	sums := g.SummarizeByType()
	if len(sums) < 10 {
		t.Fatalf("only %d op types summarized", len(sums))
	}
	if !sort.SliceIsSorted(sums, func(i, j int) bool { return sums[i].Type < sums[j].Type }) {
		t.Fatal("summaries not sorted by type")
	}
	var total int
	for _, s := range sums {
		total += s.Invocations
		if s.Invocations <= 0 {
			t.Errorf("%s: zero invocations in summary", s.Type)
		}
	}
	if total != len(g.Ops) {
		t.Fatalf("summary invocations %d != ops %d", total, len(g.Ops))
	}
}

func TestDecomposableFlopsQuick(t *testing.T) {
	f := func(muls, adds, other uint32) bool {
		op := &Op{Type: OpConv2D, Muls: float64(muls), Adds: float64(adds), OtherFlops: float64(other)}
		p := ProfileFor(op.Type)
		d := p.DecomposableFlops(op)
		return d >= 0 && d <= op.TotalFlops()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConvGeom(t *testing.T) {
	// SAME padding, stride 1: output == input.
	if oh, ow := convGeom(224, 224, 3, 3, 1, true); oh != 224 || ow != 224 {
		t.Errorf("SAME geom = %dx%d", oh, ow)
	}
	// VALID, stride 4, 11x11 on 227: AlexNet conv1 = 55x55.
	if oh, ow := convGeom(227, 227, 11, 11, 4, false); oh != 55 || ow != 55 {
		t.Errorf("AlexNet conv1 geom = %dx%d, want 55x55", oh, ow)
	}
	// SAME, stride 2 halves rounded up.
	if oh, _ := convGeom(7, 7, 3, 3, 2, true); oh != 4 {
		t.Errorf("SAME s2 geom = %d, want 4", oh)
	}
}

func TestModelsAreDeterministic(t *testing.T) {
	a := ResNet50()
	b := ResNet50()
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("non-deterministic op count: %d vs %d", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i].Name != b.Ops[i].Name || a.Ops[i].Muls != b.Ops[i].Muls || a.Ops[i].Bytes != b.Ops[i].Bytes {
			t.Fatalf("op %d differs between builds", i)
		}
	}
}

func TestLSTMAndWord2VecAreMemoryLeaning(t *testing.T) {
	// The non-CNN co-run models must have far lower arithmetic
	// intensity than the CNNs (that is why they live on CPU/ProgPIM in
	// the mixed-workload study).
	models := buildAll(t)
	intensity := func(g *Graph) float64 {
		f, b := g.Totals()
		return f / b
	}
	vgg := intensity(models[VGG19Name])
	for _, name := range []ModelName{Word2VecName} {
		if ai := intensity(models[name]); ai > vgg/10 {
			t.Errorf("%s arithmetic intensity %g too close to VGG-19's %g", name, ai, vgg)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := AlexNet()
	var buf strings.Builder
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "conv1/Conv2D", "->", "step-1", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q", want)
		}
	}
	// Every op becomes a node.
	if got := strings.Count(out, "style=filled"); got != len(g.Ops) {
		t.Fatalf("%d nodes for %d ops", got, len(g.Ops))
	}
}
