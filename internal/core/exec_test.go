package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"heteropim/internal/device"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// smallGraph builds a deterministic toy training step for fast executor
// tests: two conv-ish offloadable ops, a conditional op, and an update.
func smallGraph() *nn.Graph {
	g := &nn.Graph{Model: "toy", BatchSize: 4, InputBytes: 1e6,
		GPUUtilization: 0.5, ActivationBytes: 1e7}
	a := g.AddOp(nn.Op{Name: "conv/Conv2D", Type: nn.OpConv2D,
		Muls: 4e9, Adds: 4e9, OtherFlops: 4e6, Bytes: 1e8, UnitGranule: 17})
	r := g.AddOp(nn.Op{Name: "conv/Relu", Type: nn.OpRelu,
		OtherFlops: 2e7, Bytes: 1e6, UnitGranule: 1, Inputs: []int{a.ID}})
	cf := g.AddOp(nn.Op{Name: "conv/Conv2DBackpropFilter", Type: nn.OpConv2DBackpropFilter,
		Muls: 4e9, Adds: 4e9, OtherFlops: 8e6, Bytes: 4e8, UnitGranule: 17, Inputs: []int{r.ID}})
	ad := g.AddOp(nn.Op{Name: "conv/ApplyAdam", Type: nn.OpApplyAdam,
		Muls: 6e6, Adds: 4e6, OtherFlops: 2e6, Bytes: 8e6, UnitGranule: 16,
		Params: true, Inputs: []int{cf.ID}})
	a.CrossStep = []int{ad.ID}
	return g
}

func TestRunPIMBreakdownSumsToStepTime(t *testing.T) {
	g := smallGraph()
	for _, kind := range []hw.ConfigKind{hw.ConfigProgrPIM, hw.ConfigFixedPIM, hw.ConfigHeteroPIM} {
		r, err := Run(kind, g, 1)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if r.StepTime <= 0 {
			t.Fatalf("%v: non-positive step time", kind)
		}
		if d := math.Abs(r.Breakdown.Total() - r.StepTime); d > 1e-9*r.StepTime {
			t.Errorf("%v: breakdown %g != step time %g", kind, r.Breakdown.Total(), r.StepTime)
		}
		if r.Breakdown.Operation < 0 || r.Breakdown.DataMovement < 0 || r.Breakdown.Sync < 0 {
			t.Errorf("%v: negative breakdown component: %+v", kind, r.Breakdown)
		}
	}
}

func TestSerialExecutorBreakdowns(t *testing.T) {
	g := smallGraph()
	for _, kind := range []hw.ConfigKind{hw.ConfigCPU, hw.ConfigGPU} {
		r, err := Run(kind, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(r.Breakdown.Total() - r.StepTime); d > 1e-12 {
			t.Errorf("%v: breakdown %g != step %g", kind, r.Breakdown.Total(), r.StepTime)
		}
	}
}

func TestHeteroFasterThanCPUAndBaselines(t *testing.T) {
	for _, m := range nn.CNNModelNames() {
		g, err := nn.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		results := map[hw.ConfigKind]Result{}
		for _, kind := range hw.AllConfigKinds() {
			r, err := Run(kind, g, 1)
			if err != nil {
				t.Fatalf("%s/%v: %v", m, kind, err)
			}
			results[kind] = r
		}
		het := results[hw.ConfigHeteroPIM].StepTime
		cpu := results[hw.ConfigCPU].StepTime
		fixed := results[hw.ConfigFixedPIM].StepTime
		prog := results[hw.ConfigProgrPIM].StepTime
		// Headline bands of Section VI-A.
		if ratio := cpu / het; ratio < 1.19 || ratio > 28 {
			t.Errorf("%s: CPU/Hetero = %.2f, want within the paper's 1.19x-28x band", m, ratio)
		}
		if ratio := prog / het; ratio < 1.5 || ratio > 23 {
			t.Errorf("%s: Progr/Hetero = %.2f, want within ~2.5x-23x (loose 1.5 floor)", m, ratio)
		}
		if ratio := fixed / het; ratio < 1.2 || ratio > 5.7 {
			t.Errorf("%s: Fixed/Hetero = %.2f, want within ~1.4x-5.7x (loose 1.2 floor)", m, ratio)
		}
		// All PIM designs beat the CPU (the 19%+ claim).
		for _, kind := range []hw.ConfigKind{hw.ConfigProgrPIM, hw.ConfigFixedPIM, hw.ConfigHeteroPIM} {
			if results[kind].StepTime >= cpu {
				t.Errorf("%s: %v (%.2fs) does not beat CPU (%.2fs)", m, kind, results[kind].StepTime, cpu)
			}
		}
	}
}

func TestGPURelationshipsMatchPaper(t *testing.T) {
	// Section VI-A: DCGAN loses to GPU, ResNet-50 beats it, the rest
	// are close.
	ratio := func(m nn.ModelName) float64 {
		g, err := nn.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		gpu, err := Run(hw.ConfigGPU, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		het, err := Run(hw.ConfigHeteroPIM, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		return gpu.StepTime / het.StepTime
	}
	if r := ratio(nn.DCGANName); r >= 1 {
		t.Errorf("DCGAN: GPU/Hetero = %.2f, want < 1 (GPU wins)", r)
	}
	if r := ratio(nn.ResNet50Name); r <= 1.1 {
		t.Errorf("ResNet-50: GPU/Hetero = %.2f, want > 1.1 (Hetero wins)", r)
	}
	for _, m := range []nn.ModelName{nn.VGG19Name, nn.AlexNetName, nn.InceptionV3Name} {
		if r := ratio(m); r < 0.85 || r > 1.25 {
			t.Errorf("%s: GPU/Hetero = %.2f, want ~1 (within 10%%-ish)", m, r)
		}
	}
}

// buildAndRun builds a paper model and runs it on one platform.
func buildAndRun(kind hw.ConfigKind, m nn.ModelName, freqScale float64) (Result, error) {
	g, err := nn.Build(m)
	if err != nil {
		return Result{}, err
	}
	return Run(kind, g, freqScale)
}

// heteroVariant runs Hetero PIM with the Section VI-E techniques
// individually toggled (Figs. 13-15).
func heteroVariant(g *nn.Graph, rc, op bool) (Result, error) {
	opts := HeteroOptions()
	opts.RC, opts.OP = rc, op
	return RunPIM(g, hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1), opts)
}

func TestRCAndOPImproveVGG(t *testing.T) {
	g := nn.VGG19()
	base, err := heteroVariant(g, false, false)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := heteroVariant(g, true, false)
	if err != nil {
		t.Fatal(err)
	}
	op, err := heteroVariant(g, false, true)
	if err != nil {
		t.Fatal(err)
	}
	both, err := heteroVariant(g, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if !(rc.StepTime < base.StepTime) {
		t.Errorf("RC did not help: %g vs %g", rc.StepTime, base.StepTime)
	}
	if !(op.StepTime < base.StepTime) {
		t.Errorf("OP did not help: %g vs %g", op.StepTime, base.StepTime)
	}
	if !(both.StepTime <= rc.StepTime && both.StepTime <= op.StepTime) {
		t.Errorf("RC+OP (%g) should be the fastest variant", both.StepTime)
	}
	// Fig. 15: utilization ordering.
	if !(both.FixedUtilization > base.FixedUtilization) {
		t.Errorf("RC+OP utilization %g should exceed baseline %g", both.FixedUtilization, base.FixedUtilization)
	}
	if both.FixedUtilization < 0.7 {
		t.Errorf("RC+OP utilization %g, want close to 1 (paper: ~100%%)", both.FixedUtilization)
	}
	// RC removes most synchronization (Fig. 13's sync bars).
	if !(rc.Breakdown.Sync < base.Breakdown.Sync/4) {
		t.Errorf("RC sync %g should be far below no-RC %g", rc.Breakdown.Sync, base.Breakdown.Sync)
	}
}

func TestFrequencyScalingMonotone(t *testing.T) {
	g := nn.AlexNet()
	var prev hw.Seconds = math.Inf(1)
	for _, f := range []float64{1, 2, 4} {
		r, err := Run(hw.ConfigHeteroPIM, g, f)
		if err != nil {
			t.Fatal(err)
		}
		if r.StepTime >= prev {
			t.Errorf("frequency %gx did not improve: %g >= %g", f, r.StepTime, prev)
		}
		prev = r.StepTime
	}
}

func TestFrequencyScalingSaturatesForVGG(t *testing.T) {
	// Fig. 11: VGG-19's 4x gain over 2x is small (internal bandwidth
	// bound), while AlexNet keeps scaling.
	gain := func(m nn.ModelName) float64 {
		g, err := nn.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Run(hw.ConfigHeteroPIM, g, 2)
		if err != nil {
			t.Fatal(err)
		}
		r4, err := Run(hw.ConfigHeteroPIM, g, 4)
		if err != nil {
			t.Fatal(err)
		}
		return r2.StepTime / r4.StepTime
	}
	vgg := gain(nn.VGG19Name)
	alex := gain(nn.AlexNetName)
	if vgg >= alex {
		t.Errorf("VGG 2x->4x gain (%.2f) should saturate below AlexNet's (%.2f)", vgg, alex)
	}
}

func TestProgPIMScaling(t *testing.T) {
	// Fig. 12: at constant logic-die area 16P is slower than 1P on every
	// CNN (16 processors cost 60 fixed units), but not by much: the paper
	// says 12-14%, `pimbench -only F12` measures 1.02-1.16x.
	for _, m := range nn.CNNModelNames() {
		g, err := nn.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := RunPIM(g, hw.HeteroConfigWithProcessors(1, 1), HeteroOptions())
		if err != nil {
			t.Fatal(err)
		}
		r16, err := RunPIM(g, hw.HeteroConfigWithProcessors(16, 1), HeteroOptions())
		if err != nil {
			t.Fatal(err)
		}
		if r := r16.StepTime / r1.StepTime; r <= 1 || r > 1.20 {
			t.Errorf("%s: 16P/1P step time = %.3f, want slower by at most 1.20x", m, r)
		}
	}
}

func TestUniformPlacementSlower(t *testing.T) {
	g := nn.AlexNet()
	opts := HeteroOptions()
	thermal, err := RunPIM(g, hw.PaperConfig(hw.ConfigHeteroPIM), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.UniformPlacement = true
	uniform, err := RunPIM(g, hw.PaperConfig(hw.ConfigHeteroPIM), opts)
	if err != nil {
		t.Fatal(err)
	}
	if uniform.StepTime <= thermal.StepTime {
		t.Errorf("uniform placement (%g) should be slower than thermal (%g)", uniform.StepTime, thermal.StepTime)
	}
}

func TestCandidateThresholdAblation(t *testing.T) {
	// DESIGN.md §6 ablation. Finding (recorded in EXPERIMENTS.md): with
	// opportunistic class-1 offload in place, the x threshold mostly
	// decides which conditional ops are *forced* onto the programmable
	// PIM; performance varies only mildly with x, and offload stays
	// high across the sweep.
	g := nn.VGG19()
	times := map[float64]hw.Seconds{}
	for _, x := range []float64{5, 90, 99} {
		opts := HeteroOptions()
		opts.XPercent = x
		r, err := RunPIM(g, hw.PaperConfig(hw.ConfigHeteroPIM), opts)
		if err != nil {
			t.Fatal(err)
		}
		times[x] = r.StepTime
		if r.OffloadedOps < 50 {
			t.Errorf("x=%g: only %d ops offloaded", x, r.OffloadedOps)
		}
	}
	if spread := times[99] / times[5]; spread > 1.35 || spread < 1.0 {
		t.Errorf("x sweep spread = %.2f, want mild (1.0-1.35)", spread)
	}
}

func TestRunPIMRejectsInvalidConfig(t *testing.T) {
	g := smallGraph()
	cfg := hw.PaperConfig(hw.ConfigHeteroPIM)
	cfg.Stack.Rows = 3
	if _, err := RunPIM(g, cfg, HeteroOptions()); err == nil {
		t.Fatal("invalid config must be rejected")
	}
}

func TestRunUnknownConfigKind(t *testing.T) {
	g := smallGraph()
	if _, err := Run(hw.ConfigKind(42), g, 1); err == nil {
		t.Fatal("unknown kind must error")
	}
}

func TestRunAllAndBuildAndRun(t *testing.T) {
	g := smallGraph()
	var rs []Result
	for _, kind := range hw.AllConfigKinds() {
		r, err := Run(kind, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	if len(rs) != 5 {
		t.Fatalf("the five platforms returned %d results", len(rs))
	}
	if _, err := buildAndRun(hw.ConfigCPU, nn.AlexNetName, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := buildAndRun(hw.ConfigCPU, "nope", 1); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestNeurocubeComparison(t *testing.T) {
	// Fig. 10: Hetero PIM at least 3x faster than Neurocube.
	for _, m := range nn.CNNModelNames() {
		g, err := nn.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		nc := RunNeurocube(g, device.DefaultNeurocube(), hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1))
		het, err := Run(hw.ConfigHeteroPIM, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := nc.StepTime / het.StepTime; ratio < 3 {
			t.Errorf("%s: Neurocube/Hetero = %.2f, want >= 3 (Section VI-C)", m, ratio)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := nn.AlexNet()
	a, err := Run(hw.ConfigHeteroPIM, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(hw.ConfigHeteroPIM, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.StepTime != b.StepTime || a.FixedUtilization != b.FixedUtilization {
		t.Fatalf("simulation not deterministic: %v vs %v", a.StepTime, b.StepTime)
	}
}

func TestHostOnlyOpsNeverTouchFixedPool(t *testing.T) {
	g := smallGraph()
	opts := HeteroOptions()
	opts.HostOnlyOps = map[int]bool{0: true, 1: true, 2: true, 3: true}
	r, err := RunPIM(g, hw.PaperConfig(hw.ConfigHeteroPIM), opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Usage.FixedBusyUnitSeconds != 0 {
		t.Fatalf("restricted ops used %g fixed unit-seconds", r.Usage.FixedBusyUnitSeconds)
	}
}

func TestThroughput(t *testing.T) {
	r := Result{StepTime: 0.5}
	if r.Throughput() != 2 {
		t.Fatal("throughput wrong")
	}
	if (Result{}).Throughput() != 0 {
		t.Fatal("zero step time must give zero throughput")
	}
}

func TestMoreStepsSameStepTime(t *testing.T) {
	// Steady-state per-step time should be stable in the number of
	// simulated steps (within pipeline fill effects).
	g := nn.AlexNet()
	opts := HeteroOptions()
	opts.Steps = 3
	a, err := RunPIM(g, hw.PaperConfig(hw.ConfigHeteroPIM), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Steps = 8
	b, err := RunPIM(g, hw.PaperConfig(hw.ConfigHeteroPIM), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(a.StepTime-b.StepTime) / a.StepTime; rel > 0.15 {
		t.Errorf("step time unstable across horizons: %g vs %g (%.0f%%)", a.StepTime, b.StepTime, rel*100)
	}
}

func TestScheduleTrace(t *testing.T) {
	g := smallGraph()
	var buf strings.Builder
	opts := HeteroOptions()
	opts.Trace = &buf
	opts.Steps = 1
	if _, err := RunPIM(g, hw.PaperConfig(hw.ConfigHeteroPIM), opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Count(out, "\n")
	if lines != len(g.Ops) {
		t.Fatalf("%d trace lines for %d ops:\n%s", lines, len(g.Ops), out)
	}
	for _, want := range []string{"path=fixed", "path=cpu", "op=conv/Conv2D"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestStatusRegistersDrainAtCompletion(t *testing.T) {
	// The Fig. 7 registers must read all-idle once the simulation ends:
	// every pimOffload got its matching completion.
	g := nn.AlexNet()
	opts := HeteroOptions()
	opts.Steps = 2
	r, err := RunPIM(g, hw.PaperConfig(hw.ConfigHeteroPIM), opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.OffloadedOps == 0 {
		t.Fatal("nothing offloaded")
	}
}

func TestStepTimeWithinAnalyticBounds(t *testing.T) {
	// The DES makespan must sit between the embarrassingly-parallel
	// lower bound (all decomposable work at the full pool rate) and the
	// fully-serial upper bound (every op on the CPU, one at a time).
	for _, m := range []nn.ModelName{nn.AlexNetName, nn.DCGANName} {
		g, err := nn.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		het, err := Run(hw.ConfigHeteroPIM, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		serial := RunCPU(g, hw.PaperConfig(hw.ConfigCPU), nil).StepTime
		cfg := hw.PaperConfig(hw.ConfigHeteroPIM)
		poolRate := float64(cfg.FixedPIM.Units) * cfg.FixedPIM.FlopsPerUnitCycle * cfg.Stack.EffectiveFreq()
		var decomposable float64
		for _, op := range g.Ops {
			p := nn.ProfileFor(op.Type)
			decomposable += p.DecomposableFlops(op)
		}
		lower := decomposable / poolRate
		if het.StepTime < lower {
			t.Errorf("%s: step %g below the physical lower bound %g", m, het.StepTime, lower)
		}
		if het.StepTime > serial {
			t.Errorf("%s: step %g above the fully-serial CPU bound %g", m, het.StepTime, serial)
		}
	}
}

func TestOpportunisticOffloadNeverHurts(t *testing.T) {
	// The class-1 rule (Fig. 2: offload compute-intensive
	// non-candidates when units idle). With the operation pipeline
	// already overlapping steps, the rule is worth a measurable few
	// percent on deep serial networks — and must never be a loss.
	g := nn.ResNet50()
	on, err := RunPIM(g, hw.PaperConfig(hw.ConfigHeteroPIM), HeteroOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := HeteroOptions()
	opts.DisableOpportunistic = true
	off, err := RunPIM(g, hw.PaperConfig(hw.ConfigHeteroPIM), opts)
	if err != nil {
		t.Fatal(err)
	}
	if on.StepTime > off.StepTime*1.01 {
		t.Errorf("opportunistic offload HURT: on=%g off=%g", on.StepTime, off.StepTime)
	}
	// Without OP the rule carries far more weight (the forward pass has
	// nothing else to overlap with).
	noOP := HeteroOptions()
	noOP.OP = false
	onNoOP, err := RunPIM(g, hw.PaperConfig(hw.ConfigHeteroPIM), noOP)
	if err != nil {
		t.Fatal(err)
	}
	noOP.DisableOpportunistic = true
	offNoOP, err := RunPIM(g, hw.PaperConfig(hw.ConfigHeteroPIM), noOP)
	if err != nil {
		t.Fatal(err)
	}
	if offNoOP.StepTime < onNoOP.StepTime*1.1 {
		t.Errorf("without OP, disabling the class-1 rule cost only %.0f%% (on=%g off=%g)",
			(offNoOP.StepTime/onNoOP.StepTime-1)*100, onNoOP.StepTime, offNoOP.StepTime)
	}
}

func TestNonCNNModelsRunOnAllConfigs(t *testing.T) {
	for _, m := range []nn.ModelName{nn.LSTMName, nn.Word2VecName} {
		g, err := nn.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range hw.AllConfigKinds() {
			r, err := Run(kind, g, 1)
			if err != nil {
				t.Fatalf("%s on %v: %v", m, kind, err)
			}
			if r.StepTime <= 0 {
				t.Fatalf("%s on %v: degenerate step", m, kind)
			}
		}
	}
}

// TestRunPIMResultDigestsPinned pins the SHA-256 of the JSON-encoded
// Result of a plain Hetero PIM run and of executor paths that neither
// the golden files nor the benchmark digests run: the uniform-placement
// derate, the GPU host, the Progr and Fixed PIM option sets, host-only
// ops, RC/OP off, extreme PLL multipliers and a one-unit pool. Any
// change to the per-event timing arithmetic — its inputs, its
// expressions or their order — moves a digest here even when every
// golden still matches.
func TestRunPIMResultDigestsPinned(t *testing.T) {
	hetero := func(freq float64) hw.SystemConfig { return hw.PaperConfigScaled(hw.ConfigHeteroPIM, freq) }
	heteroOpts := func(edit func(*Options)) Options {
		o := HeteroOptions()
		edit(&o)
		return o
	}
	oneUnit := hetero(1)
	oneUnit.FixedPIM = hw.PaperFixedPIM(1)
	alex := nn.AlexNet()
	everyOther := map[int]bool{}
	for _, op := range alex.Ops {
		if op.ID%2 == 1 {
			everyOther[op.ID] = true
		}
	}
	cases := []struct {
		name string
		g    *nn.Graph
		cfg  hw.SystemConfig
		opts Options
		want string
	}{
		{"hetero", alex, hetero(1), HeteroOptions(),
			"c95fb74f15f6d9873cb6df80107525d8ecf9db3868fccc9773c83d45df89fdfb"},
		{"uniform-placement", alex, hetero(1), heteroOpts(func(o *Options) { o.UniformPlacement = true }),
			"b64d5e6b70338c937ed27faa303b3686e9a6a23bba7f4127f6b3c7e533b10049"},
		{"uniform-placement-freq2", nn.DCGAN(), hetero(2), heteroOpts(func(o *Options) { o.UniformPlacement = true }),
			"54af2dab401092e3733aabaf3bcef74b4b18d81435b0edf4049ed378680afdff"},
		{"gpu-host", alex, hw.GPUHostHeteroConfig(1), heteroOpts(func(o *Options) { o.GPUHost = true }),
			"5f90f408374d0f5df0c78c761a5710a248046209b58cc998f05e3b44bdc7379d"},
		{"progr-pim", alex, hw.PaperConfig(hw.ConfigProgrPIM), Options{NoCPUFallback: true, WideProgOps: true},
			"8eeb17151f0ed21427fc64b4f9a1c951302efb6c041e61471a1077749e2f420b"},
		{"fixed-pim", alex, hw.PaperConfig(hw.ConfigFixedPIM), Options{},
			"3e2cee3a4495b0b8adb2d4e4004f438ea654410adc65bd93e4c515d7901a8ac4"},
		{"host-only-ops", alex, hetero(1), heteroOpts(func(o *Options) { o.HostOnlyOps = everyOther }),
			"45766ca61ff68dbd824d6a836bc0353f799b46a0401a52039cfed636549244b5"},
		{"host-only-ops-uniform", alex, hetero(1),
			heteroOpts(func(o *Options) { o.HostOnlyOps, o.UniformPlacement = everyOther, true }),
			"6ba7b1953a2bf5569af37c9b2631c28ede7ad068af008d6eb41c654a50b1034d"},
		{"rc-op-off", alex, hetero(1), heteroOpts(func(o *Options) { o.RC, o.OP = false, false }),
			"12a2ae204153c074f1819db2c47aeec1b68a7916135d09ea11719239acdc9302"},
		{"freq-0.5", alex, hetero(0.5), HeteroOptions(),
			"a296054d2e548447a33f37c3b896c6d3fc5ae86686aea6246df9911a2cffbbbb"},
		{"freq-4", alex, hetero(4), HeteroOptions(),
			"04b571c1c3ae7801360a4f657b8635f824b6fc841703835aa531042d7c9da93d"},
		{"one-unit", alex, oneUnit, HeteroOptions(),
			"f2e49dc3d0eb7728844791be750ee92635d3add307ae8b79049b85b068693590"},
		{"toy-uniform-no-rc", smallGraph(), hetero(1),
			heteroOpts(func(o *Options) { o.RC, o.UniformPlacement = false, true }),
			"281a41238b431eef189d4260fdee47b0924df122023ab862822c640f3baa6143"},
	}
	for _, c := range cases {
		r, err := RunPIM(c.g, c.cfg, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: result digest %s, want %s", c.name, got, c.want)
		}
	}
}
