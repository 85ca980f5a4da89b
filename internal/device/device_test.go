package device

import (
	"math"
	"testing"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

func convOp() *nn.Op {
	// A VGG-ish conv backprop-filter instance: 100 GFLOP, 4 GB traffic.
	return &nn.Op{
		Name: "conv/Conv2DBackpropFilter", Type: nn.OpConv2DBackpropFilter,
		Muls: 50e9, Adds: 50e9, OtherFlops: 1e9, Bytes: 4e9, UnitGranule: 17,
	}
}

func reluOp() *nn.Op {
	return &nn.Op{Name: "relu", Type: nn.OpRelu, OtherFlops: 1e8, Bytes: 8e8, UnitGranule: 1}
}

func TestWorkTimeIsRoofline(t *testing.T) {
	w := Work{Compute: 2, Memory: 3}
	if w.Time() != 3 || !w.MemBound() {
		t.Fatal("roofline max broken")
	}
	w = Work{Compute: 5, Memory: 1}
	if w.Time() != 5 || w.MemBound() {
		t.Fatal("compute-bound case broken")
	}
}

func TestCPUOpMatchesHandRoofline(t *testing.T) {
	op := convOp()
	cpu := hw.PaperCPU()
	p := nn.ProfileFor(op.Type)
	w := CPUOp(op, &p, cpu)
	wantC := op.TotalFlops() / (cpu.Peak() * p.CPUComputeEff)
	wantM := op.Bytes / (cpu.MemBandwidth * p.CPUBwEff)
	if math.Abs(w.Compute-wantC) > 1e-12*wantC || math.Abs(w.Memory-wantM) > 1e-12*wantM {
		t.Fatalf("CPU work = %+v, want (%g,%g)", w, wantC, wantM)
	}
}

func TestGPUFasterThanCPUOnConv(t *testing.T) {
	op := convOp()
	p := nn.ProfileFor(op.Type)
	cpu := CPUOp(op, &p, hw.PaperCPU()).Time()
	gpu := GPUOp(op, &p, hw.PaperGPU(), 0.63).Time()
	if gpu >= cpu {
		t.Fatalf("GPU (%g) should beat CPU (%g) on conv backprop", gpu, cpu)
	}
}

func TestGPUUtilizationScalesCompute(t *testing.T) {
	op := convOp()
	p := nn.ProfileFor(op.Type)
	lo := GPUOp(op, &p, hw.PaperGPU(), 0.30)
	hi := GPUOp(op, &p, hw.PaperGPU(), 0.60)
	if r := lo.Compute / hi.Compute; math.Abs(r-2) > 1e-9 {
		t.Fatalf("utilization scaling ratio = %g, want 2", r)
	}
	// Zero utilization falls back to 1 rather than dividing by zero.
	z := GPUOp(op, &p, hw.PaperGPU(), 0)
	if math.IsInf(z.Compute, 1) || z.Compute <= 0 {
		t.Fatal("zero utilization must not produce Inf/0")
	}
}

func TestGPUStepTransfer(t *testing.T) {
	g := nn.VGG19()
	tt := GPUStepTransferTime(g, hw.PaperGPU())
	if tt <= 0 {
		t.Fatal("transfer time must be positive")
	}
	wantBytes := g.InputBytes + g.GPUUnhiddenTransferFrac*g.ActivationBytes
	if b := GPUStepTransferBytes(g); math.Abs(b-wantBytes) > 1 {
		t.Fatalf("transfer bytes = %g, want %g", b, wantBytes)
	}
}

func TestFixedUnitRate(t *testing.T) {
	p := nn.ProfileFor(convOp().Type)
	spec := hw.PaperFixedPIM(444)
	r1 := FixedUnitRate(&p, spec, hw.PaperStack(1))
	r4 := FixedUnitRate(&p, spec, hw.PaperStack(4))
	if r1 <= 0 {
		t.Fatal("conv must be fixed-eligible")
	}
	if math.Abs(r4/r1-4) > 1e-9 {
		t.Fatalf("frequency scaling ratio = %g, want 4", r4/r1)
	}
	relu := nn.ProfileFor(reluOp().Type)
	if FixedUnitRate(&relu, spec, hw.PaperStack(1)) != 0 {
		t.Fatal("Relu must not be fixed-eligible")
	}
}

func TestFixedSectionTimeScalesWithUnits(t *testing.T) {
	op := convOp()
	p := nn.ProfileFor(op.Type)
	stack := hw.PaperStack(1)
	rate := FixedUnitRate(&p, hw.PaperFixedPIM(444), stack)
	bw := FixedBandwidth(&p, stack)
	flops, bytes := FixedWork(op, &p)
	if flops <= 0 || bytes <= 0 || flops > op.TotalFlops() {
		t.Fatalf("fixed work = (%g,%g)", flops, bytes)
	}
	t100 := FixedSectionTime(flops, 0, 100, rate, bw)
	t400 := FixedSectionTime(flops, 0, 400, rate, bw)
	if r := t100 / t400; math.Abs(r-4) > 1e-9 {
		t.Fatalf("unit scaling ratio = %g, want 4", r)
	}
	if !math.IsInf(FixedSectionTime(flops, bytes, 0, rate, bw), 1) {
		t.Fatal("zero units must be infinitely slow")
	}
	// With enough units the section becomes bandwidth bound.
	tBig := FixedSectionTime(flops, bytes, 100000, rate, bw)
	wantMem := bytes / (stack.ScaledInternalBandwidth() * p.FixedBwEff)
	if math.Abs(tBig-wantMem) > 1e-9*wantMem {
		t.Fatalf("bandwidth floor = %g, want %g", tBig, wantMem)
	}
}

func TestProgOpParallelismCaps(t *testing.T) {
	op := convOp() // conv family: prog parallelism 16
	p := nn.ProfileFor(op.Type)
	spec := hw.PaperProgPIM(64)
	stack := hw.PaperStack(1)
	w16 := ProgOp(op, &p, spec, 16, stack)
	w64 := ProgOp(op, &p, spec, 64, stack)
	if w16.Compute != w64.Compute {
		t.Fatal("beyond the parallelism cap extra processors must not help")
	}
	w1 := ProgOp(op, &p, spec, 1, stack)
	if r := w1.Compute / w16.Compute; math.Abs(r-16) > 1e-9 {
		t.Fatalf("prog scaling = %g, want 16", r)
	}
	wz := ProgOp(op, &p, spec, 0, stack)
	if math.IsInf(wz.Compute, 1) {
		t.Fatal("zero processors must clamp to 1, not Inf")
	}
}

func TestProgResidualSmallerThanWholeOp(t *testing.T) {
	op := convOp()
	p := nn.ProfileFor(op.Type)
	spec := hw.PaperProgPIM(1)
	stack := hw.PaperStack(1)
	whole := ProgOp(op, &p, spec, 1, stack).Time()
	resid := ProgResidual(op, &p, spec, stack).Time()
	if resid >= whole {
		t.Fatalf("residual (%g) must be cheaper than the whole op (%g)", resid, whole)
	}
}

func TestResidualPlusDecomposableCoversAllFlops(t *testing.T) {
	op := convOp()
	p := nn.ProfileFor(op.Type)
	if d := math.Abs(p.DecomposableFlops(op) + p.ResidualFlops(op) - op.TotalFlops()); d > 1e-3 {
		t.Fatalf("flop split leaks %g", d)
	}
}

func TestNeurocubeSlowerThanFixedPoolOnConv(t *testing.T) {
	op := convOp()
	ncube := DefaultNeurocube()
	w := NeurocubeOp(op, ncube)
	p := nn.ProfileFor(op.Type)
	stack := hw.PaperStack(1)
	flops, bytes := FixedWork(op, &p)
	fixed := FixedSectionTime(flops, bytes, 436, FixedUnitRate(&p, hw.PaperFixedPIM(436), stack), FixedBandwidth(&p, stack))
	if w.Time() <= fixed {
		t.Fatalf("Neurocube (%g) should lose to the full fixed pool (%g) on conv", w.Time(), fixed)
	}
}

func TestNeurocubeControlHeavyPenalty(t *testing.T) {
	ncube := DefaultNeurocube()
	relu := reluOp()
	conv := convOp()
	// Normalize by flops: per-flop the control-heavy op must be slower.
	perFlopRelu := NeurocubeOp(relu, ncube).Compute / relu.TotalFlops()
	perFlopConv := NeurocubeOp(conv, ncube).Compute / conv.TotalFlops()
	if perFlopRelu <= perFlopConv {
		t.Fatal("control-heavy ops must be slower per flop on Neurocube")
	}
}

func TestSafeDiv(t *testing.T) {
	if safeDiv(0, 5) != 0 || safeDiv(-1, 5) != 0 {
		t.Fatal("non-positive numerators must give 0")
	}
	if !math.IsInf(safeDiv(5, 0), 1) {
		t.Fatal("zero denominator must give +Inf")
	}
	if safeDiv(10, 2) != 5 {
		t.Fatal("plain division broken")
	}
}
