package batch

import (
	"context"
	"math"
	"testing"

	"heteropim/internal/core"
	"heteropim/internal/hmc"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/thermal"
)

// testCandidates is a small but discriminating space: unit budgets
// spanning 8x and two PLL points.
func testCandidates() []Candidate {
	var cands []Candidate
	for _, freq := range []float64{1, 2} {
		for _, units := range []int{111, 222, 444, 888} {
			cands = append(cands, Candidate{Units: units, FreqScale: freq, ProgProcessors: 1})
		}
	}
	return cands
}

// TestLowerBoundAdmissibleAllModels is the load-bearing property: the
// analytic bound must never exceed the simulated step time, for every
// model and across the candidate space. If this fails, pruned DSE can
// silently drop true winners.
func TestLowerBoundAdmissibleAllModels(t *testing.T) {
	opts := core.HeteroOptions()
	for _, model := range nn.AllModelNames() {
		g, err := nn.Build(model)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range testCandidates() {
			cfg := c.Config()
			lb := StepTimeLowerBound(g, cfg, opts)
			if lb <= 0 {
				t.Errorf("%s %v: non-positive bound %g", model, c, lb)
			}
			r, err := core.RunPIM(g, cfg, opts)
			if err != nil {
				t.Fatalf("%s %v: %v", model, c, err)
			}
			if lb > r.StepTime {
				t.Errorf("%s %v: bound %.6g exceeds simulated step time %.6g (inadmissible)",
					model, c, lb, r.StepTime)
			}
		}
	}
}

// TestLowerBoundAdmissibleBaselineOptions re-checks admissibility under
// the non-hetero option sets RunPIM serves (Fixed-PIM baseline and the
// wide Progr-PIM baseline).
func TestLowerBoundAdmissibleBaselineOptions(t *testing.T) {
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []core.Options{
		{},                                       // Fixed PIM baseline: no selection, no RC/OP
		{NoCPUFallback: true, WideProgOps: true}, // Progr PIM baseline
		{RC: true, OP: true, UseSelection: true, PipelineDepth: 3, Steps: 6},
	} {
		for _, c := range []Candidate{{444, 1, 1}, {888, 4, 4}} {
			cfg := c.Config()
			lb := StepTimeLowerBound(g, cfg, opts)
			r, err := core.RunPIM(g, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if lb > r.StepTime {
				t.Errorf("opts %+v %v: bound %.6g > simulated %.6g", opts, c, lb, r.StepTime)
			}
		}
	}
}

// TestExploreEquivalenceAllModels pins the tentpole guarantee: pruned
// branch-and-bound returns the identical winning configuration and
// winner result as exhaustive evaluation, for every CNN model.
func TestExploreEquivalenceAllModels(t *testing.T) {
	ctx := context.Background()
	cands := testCandidates()
	for _, model := range nn.CNNModelNames() {
		exh, err := ExploreDSE(ctx, model, cands, DSEOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pru, err := ExploreDSE(ctx, model, cands, DSEOptions{Prune: true})
		if err != nil {
			t.Fatal(err)
		}
		if exh.Winner.Candidate != pru.Winner.Candidate {
			t.Errorf("%s: pruned winner %v != exhaustive winner %v",
				model, pru.Winner.Candidate, exh.Winner.Candidate)
		}
		if exh.Winner.Result.StepTime != pru.Winner.Result.StepTime {
			t.Errorf("%s: winner step time diverged: %.9g vs %.9g",
				model, pru.Winner.Result.StepTime, exh.Winner.Result.StepTime)
		}
		if exh.Simulated != len(cands) || exh.Pruned != 0 {
			t.Errorf("%s: exhaustive run simulated %d/pruned %d, want %d/0",
				model, exh.Simulated, exh.Pruned, len(cands))
		}
		if pru.Simulated+pru.Pruned != len(cands) {
			t.Errorf("%s: pruned run accounts for %d candidates, want %d",
				model, pru.Simulated+pru.Pruned, len(cands))
		}
		t.Logf("%s: winner %v, pruned %d/%d", model, pru.Winner.Candidate, pru.Pruned, len(cands))
	}
}

// TestExplorePrunesMeaningfully checks the perf side: on the
// discriminating space the bound must actually cut a sizable share of
// simulations, or branch-and-bound buys nothing.
func TestExplorePrunesMeaningfully(t *testing.T) {
	ResetStats()
	ex, err := ExploreDSE(context.Background(), nn.VGG19Name, testCandidates(), DSEOptions{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(ex.Pruned) / float64(len(testCandidates())); frac < 0.3 {
		t.Errorf("pruned only %d of %d candidates (%.0f%%), want >= 30%%",
			ex.Pruned, len(testCandidates()), frac*100)
	}
	st := ReadStats()
	if st.Pruned != ex.Pruned || st.Simulated != ex.Simulated ||
		st.Candidates != len(testCandidates()) {
		t.Errorf("registry counters %+v disagree with exploration %d/%d", st, ex.Pruned, ex.Simulated)
	}
}

// TestExploreRejectsEmptySpace covers the error path.
func TestExploreRejectsEmptySpace(t *testing.T) {
	if _, err := ExploreDSE(context.Background(), nn.AlexNetName, nil, DSEOptions{Prune: true}); err == nil {
		t.Fatal("empty candidate set accepted")
	}
}

// gridCandidates mirrors the pimdse large grid's shape at test scale:
// per PLL point, a geometric unit ladder from the thermal maximum down
// to an eighth of it, crossed with the processor counts.
func gridCandidates(t *testing.T) []Candidate {
	t.Helper()
	stack, err := hmc.New(hw.PaperStack(1))
	if err != nil {
		t.Fatal(err)
	}
	var cands []Candidate
	for _, freq := range []float64{0.5, 1, 2, 4} {
		maxUnits, err := thermal.MaxUnitsUnderCap(stack, thermal.DRAMThermalCap, freq)
		if err != nil {
			t.Fatal(err)
		}
		prev := 0
		for r := 0; r < 6; r++ {
			units := int(float64(maxUnits)*math.Pow(1.0/8, float64(r)/5) + 0.5)
			if units < 1 || units == prev {
				continue
			}
			prev = units
			for _, procs := range []int{1, 4} {
				cands = append(cands, Candidate{Units: units, FreqScale: freq, ProgProcessors: procs})
			}
		}
	}
	return cands
}

// TestExploreSurrogateWinnerInvariance pins the interactive-DSE
// guarantee across the full grid shape for every CNN model: stacking
// surrogate ordering and delta replays on top of pruning changes how
// the winner is found, never which candidate wins or its result.
func TestExploreSurrogateWinnerInvariance(t *testing.T) {
	ctx := context.Background()
	cands := gridCandidates(t)
	modes := []DSEOptions{
		{Prune: true},
		{Prune: true, Surrogate: true},
		{Prune: true, Surrogate: true, Delta: true},
		{Prune: true, Surrogate: true, DeepDelta: true},
		{Prune: true, Surrogate: true, Delta: true, Calibrate: true},
		{Prune: true, Surrogate: true, DeepDelta: true, Calibrate: true, Confidence: true},
	}
	for _, model := range nn.CNNModelNames() {
		base, err := ExploreDSE(ctx, model, cands, DSEOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			got, err := ExploreDSE(ctx, model, cands, mode)
			if err != nil {
				t.Fatalf("%s %+v: %v", model, mode, err)
			}
			if got.Winner.Candidate != base.Winner.Candidate {
				t.Errorf("%s %+v: winner %v != exhaustive %v",
					model, mode, got.Winner.Candidate, base.Winner.Candidate)
			}
			if got.Winner.Result.StepTime != base.Winner.Result.StepTime {
				t.Errorf("%s %+v: winner step time %.12g != exhaustive %.12g",
					model, mode, got.Winner.Result.StepTime, base.Winner.Result.StepTime)
			}
			if got.Simulated+got.Pruned != len(cands) {
				t.Errorf("%s %+v: %d simulated + %d pruned != %d candidates",
					model, mode, got.Simulated, got.Pruned, len(cands))
			}
		}
	}
}

// TestExplorePinnedCounts pins the pruned/simulated split on a cold
// cache: the split depends only on the deterministic simulation
// results and the (first block = 1, then 8) round structure, so it must
// be identical on every machine and across surrogate on/off reruns.
func TestExplorePinnedCounts(t *testing.T) {
	defer core.EnableResultCache(core.EnableResultCache(false))
	var cands []Candidate
	for _, freq := range []float64{1, 2, 4} {
		for _, units := range []int{888, 444, 222, 111, 55, 27} {
			for _, procs := range []int{1, 4} {
				cands = append(cands, Candidate{Units: units, FreqScale: freq, ProgProcessors: procs})
			}
		}
	}
	for _, tc := range []struct {
		mode                      DSEOptions
		wantPruned, wantSimulated int
	}{
		{DSEOptions{Prune: true}, 24, 12},
		{DSEOptions{Prune: true, Surrogate: true}, 24, 12},
		// Calibration changes the visit order (references first) but on
		// this sparse space retires the same set — pinning that the
		// reordering itself is deterministic.
		{DSEOptions{Prune: true, Surrogate: true, Calibrate: true}, 24, 12},
	} {
		ex, err := ExploreDSE(context.Background(), nn.AlexNetName, cands, tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Pruned != tc.wantPruned || ex.Simulated != tc.wantSimulated {
			t.Errorf("%+v: pruned/simulated = %d/%d, want %d/%d",
				tc.mode, ex.Pruned, ex.Simulated, tc.wantPruned, tc.wantSimulated)
		}
	}
}

// TestLowerBoundBitsPinned pins the exact bits of the analytic bound for
// every CNN over corner candidates: no programmable processors, a
// one-unit pool, extreme PLL multipliers, a two-stack system and the
// unpipelined Fixed PIM option set. The bound's floating-point
// expressions and their order are part of its contract — the DSE's
// canonical candidate order sorts on these values.
func TestLowerBoundBitsPinned(t *testing.T) {
	hetero := core.HeteroOptions()
	twoStacks := core.HeteroOptions()
	twoStacks.Stacks = 2
	cases := []struct {
		c    Candidate
		opts core.Options
	}{
		{Candidate{444, 1, 1}, hetero},
		{Candidate{1, 1, 1}, hetero},
		{Candidate{444, 2, 0}, hetero},
		{Candidate{111, 4, 16}, hetero},
		{Candidate{888, 0.5, 4}, twoStacks},
		{Candidate{222, 1, 1}, core.Options{}},
	}
	want := map[nn.ModelName][]uint64{
		nn.VGG19Name:       {0x4013a00a9d775f81, 0x403719bb166c2a52, 0x4009c8d5e63d6bb5, 0x40137936649e382c, 0x4003b20900ff319a, 0x4033719ff24e0323},
		nn.AlexNetName:     {0x3fd21fa84c210968, 0x3ff5436c6ee44d1c, 0x3fc738c28dd05118, 0x3fd1fe60b0dfdb34, 0x3fc34e04b804dac5, 0x3ff1f9071326120c},
		nn.DCGANName:       {0x3f92eb679954fd41, 0x3fb181b0a8f41c54, 0x3f854f769690c2dd, 0x3f92bb3dd5186132, 0x3f83417854f28e8e, 0x3fb2b175bbf7f3de},
		nn.ResNet50Name:    {0x400edb6a122ab7c5, 0x4031db34147b5d40, 0x400364191f5c911e, 0x400e38c278fb31fe, 0x3ffe78beee30c75c, 0x402e14434431eba8},
		nn.InceptionV3Name: {0x3fe5d175b322cff3, 0x400b8746cba68d4f, 0x3fe088a49212637f, 0x3fe545e7383d7a6c, 0x3fd5853f22e134b0, 0x40053b6c1f17dbc3},
	}
	for _, model := range nn.CNNModelNames() {
		g, err := nn.Build(model)
		if err != nil {
			t.Fatal(err)
		}
		for i, tc := range cases {
			got := math.Float64bits(StepTimeLowerBound(g, tc.c.Config(), tc.opts))
			if w := want[model][i]; got != w {
				t.Errorf("%s %v stacks=%d: bound bits %#x, want %#x", model, tc.c, tc.opts.Stacks, got, w)
			}
		}
	}
}
