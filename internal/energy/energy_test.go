package energy

import (
	"math"
	"testing"

	"heteropim/internal/core"
	"heteropim/internal/device"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

func run(t testing.TB, kind hw.ConfigKind, m nn.ModelName) core.Result {
	t.Helper()
	r, err := buildAndRun(kind, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// buildAndRun builds a paper model and runs it on one platform.
func buildAndRun(kind hw.ConfigKind, m nn.ModelName, freqScale float64) (core.Result, error) {
	g, err := nn.Build(m)
	if err != nil {
		return core.Result{}, err
	}
	return core.Run(kind, g, freqScale)
}

// heteroVariant runs Hetero PIM with RC and OP toggled (Figs. 13-15).
func heteroVariant(g *nn.Graph, rc, op bool) (core.Result, error) {
	opts := core.HeteroOptions()
	opts.RC, opts.OP = rc, op
	return core.RunPIM(g, hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1), opts)
}

func TestEnergyPartsSumToTotal(t *testing.T) {
	r := run(t, hw.ConfigHeteroPIM, nn.AlexNetName)
	rep := Evaluate(r)
	p := rep.Parts
	sum := p.CPU + p.GPU + p.ProgPIM + p.FixedPIM + p.Neurocube + p.DRAM + p.Traffic
	if math.Abs(sum-rep.Dynamic) > 1e-9*rep.Dynamic {
		t.Fatalf("parts sum %g != total %g", sum, rep.Dynamic)
	}
	if rep.Dynamic <= 0 || rep.AvgPower <= 0 || rep.EDP <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if math.Abs(rep.EDP-rep.Dynamic*r.StepTime) > 1e-9*rep.EDP {
		t.Fatalf("EDP %g != E*T %g", rep.EDP, rep.Dynamic*r.StepTime)
	}
	if math.Abs(rep.AvgPower-rep.Dynamic/r.StepTime) > 1e-9*rep.AvgPower {
		t.Fatal("AvgPower != E/T")
	}
}

func TestPaperEnergyBands(t *testing.T) {
	// Fig. 9: CPU 3-24x and GPU 1.3-5x above Hetero; Progr PIM highest
	// or near-highest; Fixed between Hetero and GPU.
	for _, m := range nn.CNNModelNames() {
		het := Evaluate(run(t, hw.ConfigHeteroPIM, m)).Dynamic
		cpu := Evaluate(run(t, hw.ConfigCPU, m)).Dynamic
		gpu := Evaluate(run(t, hw.ConfigGPU, m)).Dynamic
		fixed := Evaluate(run(t, hw.ConfigFixedPIM, m)).Dynamic
		prog := Evaluate(run(t, hw.ConfigProgrPIM, m)).Dynamic
		if r := cpu / het; r < 3 || r > 24 {
			t.Errorf("%s: CPU/Hetero energy = %.2f, want 3-24", m, r)
		}
		if r := gpu / het; r < 1.3 || r > 6 {
			t.Errorf("%s: GPU/Hetero energy = %.2f, want ~1.3-5", m, r)
		}
		if fixed <= het {
			t.Errorf("%s: Fixed energy (%.1f) should exceed Hetero (%.1f)", m, fixed, het)
		}
		if prog < cpu*0.8 {
			t.Errorf("%s: Progr PIM energy (%.1f) should be near the top (CPU %.1f)", m, prog, cpu)
		}
	}
}

func TestGPUPowerRatioAtHighFrequency(t *testing.T) {
	// Fig. 17(b): GPU draws 1.5-2.6x more power than Hetero PIM at 4x.
	for _, m := range nn.CNNModelNames() {
		gpu := Evaluate(run(t, hw.ConfigGPU, m))
		het4, err := buildAndRun(hw.ConfigHeteroPIM, m, 4)
		if err != nil {
			t.Fatal(err)
		}
		hetRep := Evaluate(het4)
		if r := gpu.AvgPower / hetRep.AvgPower; r < 1.5 || r > 3.0 {
			t.Errorf("%s: GPU/Hetero power at 4x = %.2f, want ~1.5-2.6", m, r)
		}
	}
}

func TestEDPBestAtHighFrequency(t *testing.T) {
	// Fig. 17(a): the 4x point is the most energy-efficient (allowing a
	// statistical tie within 2%).
	for _, m := range nn.CNNModelNames() {
		edp := map[float64]float64{}
		for _, f := range []float64{1, 2, 4} {
			r, err := buildAndRun(hw.ConfigHeteroPIM, m, f)
			if err != nil {
				t.Fatal(err)
			}
			edp[f] = Evaluate(r).EDP
		}
		if edp[4] > edp[1] {
			t.Errorf("%s: EDP at 4x (%.3g) worse than 1x (%.3g)", m, edp[4], edp[1])
		}
		if edp[4] > edp[2]*1.02 {
			t.Errorf("%s: EDP at 4x (%.3g) worse than 2x (%.3g) beyond tie tolerance", m, edp[4], edp[2])
		}
	}
}

func TestRCAndOPReduceEnergy(t *testing.T) {
	// Fig. 14: the runtime techniques reduce energy.
	g := nn.VGG19()
	base, err := heteroVariant(g, false, false)
	if err != nil {
		t.Fatal(err)
	}
	full, err := heteroVariant(g, true, true)
	if err != nil {
		t.Fatal(err)
	}
	eBase := Evaluate(base).Dynamic
	eFull := Evaluate(full).Dynamic
	if eFull >= eBase {
		t.Fatalf("RC+OP energy (%.1f) should be below no-RC/no-OP (%.1f)", eFull, eBase)
	}
}

func TestPIMTrafficCheaperThanHostTraffic(t *testing.T) {
	// The core energy asymmetry: the same result with its bytes moved
	// host-side must cost more.
	r := run(t, hw.ConfigHeteroPIM, nn.AlexNetName)
	base := Evaluate(r).Dynamic
	swapped := r
	swapped.Usage.HostBytes, swapped.Usage.PIMBytes = r.Usage.PIMBytes+r.Usage.HostBytes, 0
	if Evaluate(swapped).Dynamic <= base {
		t.Fatal("moving PIM bytes to the host path must increase energy")
	}
}

func TestNeurocubeEnergyAccounted(t *testing.T) {
	g := nn.AlexNet()
	nc := core.RunNeurocube(g, device.DefaultNeurocube(), hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1))
	rep := Evaluate(nc)
	if rep.Parts.Neurocube <= 0 {
		t.Fatal("Neurocube part missing from its own energy report")
	}
}

func TestNormalize(t *testing.T) {
	reps := []Report{{Dynamic: 10}, {Dynamic: 20}}
	out := Normalize(reps, Report{Dynamic: 10})
	if out[0] != 1 || out[1] != 2 {
		t.Fatalf("normalize = %v", out)
	}
	out = Normalize(reps, Report{})
	if out[0] != 0 || out[1] != 0 {
		t.Fatal("zero baseline must yield zeros, not Inf")
	}
}

func TestZeroStepTimeSafe(t *testing.T) {
	rep := Evaluate(core.Result{Config: hw.PaperConfig(hw.ConfigCPU)})
	if math.IsNaN(rep.AvgPower) || math.IsInf(rep.AvgPower, 0) {
		t.Fatal("zero step time must not produce NaN/Inf power")
	}
}
