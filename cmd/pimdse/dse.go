package main

import (
	"context"
	"fmt"
	"math"
	"os"

	"heteropim"
	"heteropim/internal/batch"
	"heteropim/internal/energy"
	"heteropim/internal/hmc"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/report"
	"heteropim/internal/thermal"
)

// defaultCandidates builds the thermally-constrained candidate space:
// at each PLL point the unit ladder starts from the thermal model's
// maximum budget under the DRAM cap and halves down, crossed with the
// two programmable-processor counts the paper's area study considers.
func defaultCandidates() ([]batch.Candidate, error) {
	stack, err := hmc.New(hw.PaperStack(1))
	if err != nil {
		return nil, err
	}
	var cands []batch.Candidate
	for _, scale := range []float64{1, 2, 4} {
		maxUnits, err := thermal.MaxUnitsUnderCap(stack, thermal.DRAMThermalCap, scale)
		if err != nil {
			return nil, err
		}
		for _, units := range []int{maxUnits, maxUnits / 2, maxUnits / 4, maxUnits / 8} {
			if units < 1 {
				continue
			}
			for _, procs := range []int{1, 4} {
				cands = append(cands, batch.Candidate{
					Units: units, FreqScale: scale, ProgProcessors: procs,
				})
			}
		}
	}
	return cands, nil
}

// largeGridFreqs/largeGridProcs/largeGridRungs shape the interactive-DSE
// grid: six PLL points (down-clocked energy designs through the 4x
// overdrive), a 24-rung geometric unit ladder per point spanning the
// thermal maximum down to 1/64th of it, and three processor counts.
var largeGridFreqs = []float64{0.5, 1, 1.5, 2, 3, 4}
var largeGridProcs = []int{1, 2, 4}

const (
	largeGridRungs = 24
	largeGridSpan  = 64
)

// largeCandidates builds the interactive-speed DSE grid: 6 x 24 x 3 =
// 432 thermally-capped candidates. The wide dynamic range is the point:
// the down-clocked small-budget corner is both expensive to simulate
// (more fixed-pool chunks per step) and analytically hopeless (its
// admissible bound exceeds any good incumbent), so branch-and-bound
// with surrogate ordering discards most of the space unsimulated while
// remaining provably winner-identical to exhaustive search.
func largeCandidates() ([]batch.Candidate, error) {
	stack, err := hmc.New(hw.PaperStack(1))
	if err != nil {
		return nil, err
	}
	var cands []batch.Candidate
	for _, scale := range largeGridFreqs {
		maxUnits, err := thermal.MaxUnitsUnderCap(stack, thermal.DRAMThermalCap, scale)
		if err != nil {
			return nil, err
		}
		prev := 0
		for r := 0; r < largeGridRungs; r++ {
			units := ladderRung(maxUnits, r)
			if units < 1 || units == prev {
				continue
			}
			prev = units
			for _, procs := range largeGridProcs {
				cands = append(cands, batch.Candidate{
					Units: units, FreqScale: scale, ProgProcessors: procs,
				})
			}
		}
	}
	return cands, nil
}

// ladderRung returns rung r of the geometric ladder from maxUnits down
// to maxUnits/largeGridSpan. math.Pow is fully determined by IEEE-754
// inputs, so the grid is identical everywhere.
func ladderRung(maxUnits, r int) int {
	v := float64(maxUnits) * math.Pow(1.0/largeGridSpan, float64(r)/float64(largeGridRungs-1))
	return int(v + 0.5)
}

// xlGridFreqs/xlGridRungs shape the XL grid: ten PLL points and a
// 96-rung ladder per point over the same 64x span, crossed with the
// three processor counts — thousands of candidates, the scale where the
// calibrated bound and deep delta checkpoints earn their keep.
var xlGridFreqs = []float64{0.5, 0.75, 1, 1.25, 1.5, 2, 2.5, 3, 3.5, 4}

const xlGridRungs = 96

// xlCandidates builds the XL interactive-DSE grid (>= 2000 thermally
// capped candidates after integer dedup of the dense ladders).
func xlCandidates() ([]batch.Candidate, error) {
	stack, err := hmc.New(hw.PaperStack(1))
	if err != nil {
		return nil, err
	}
	var cands []batch.Candidate
	for _, scale := range xlGridFreqs {
		maxUnits, err := thermal.MaxUnitsUnderCap(stack, thermal.DRAMThermalCap, scale)
		if err != nil {
			return nil, err
		}
		prev := 0
		for r := 0; r < xlGridRungs; r++ {
			v := float64(maxUnits) * math.Pow(1.0/largeGridSpan, float64(r)/float64(xlGridRungs-1))
			units := int(v + 0.5)
			if units < 1 || units == prev {
				continue
			}
			prev = units
			for _, procs := range largeGridProcs {
				cands = append(cands, batch.Candidate{
					Units: units, FreqScale: scale, ProgProcessors: procs,
				})
			}
		}
	}
	return cands, nil
}

// xlVerifyStride subsamples the XL grid for exhaustive verification:
// every ninth candidate in grid order (plus, in TestDSEPinnedCounts, the
// optimized winner) is simulated exhaustively and must reproduce the
// optimized winner.
const xlVerifyStride = 9

// xlVerifyCandidates is the deterministic verification subset, also
// exposed as its own grid so CI can byte-diff optimized vs exhaustive
// stdout on it.
func xlVerifyCandidates() ([]batch.Candidate, error) {
	xl, err := xlCandidates()
	if err != nil {
		return nil, err
	}
	var sub []batch.Candidate
	for i := 0; i < len(xl); i += xlVerifyStride {
		sub = append(sub, xl[i])
	}
	return sub, nil
}

// candidatesFor resolves a -grid flag value.
func candidatesFor(grid string) ([]batch.Candidate, error) {
	switch grid {
	case "paper":
		return defaultCandidates()
	case "large":
		return largeCandidates()
	case "xl":
		return xlCandidates()
	case "xl-verify":
		return xlVerifyCandidates()
	default:
		return nil, fmt.Errorf("unknown grid %q (want paper, large, xl, or xl-verify)", grid)
	}
}

// winnerRow renders one model's winning candidate. The rendering must
// depend only on the winner's simulated result so pruned and exhaustive
// runs emit byte-identical tables.
func winnerRow(t *report.Table, model nn.ModelName, ex batch.Exploration) {
	w := ex.Winner
	e := energy.Evaluate(w.Result)
	t.AddRow(string(model), w.Candidate.String(),
		report.Seconds(w.Result.StepTime), report.Joules(e.Dynamic),
		fmt.Sprintf("%.3g", e.EDP))
}

// runDSE explores a candidate grid for the given models (the five CNNs
// on the flag path, a scenario's models on -scenario) and prints the
// winner table. Only the winner table goes to stdout —
// pruned/simulated counts go to stderr — so `pimdse -dse` and
// `pimdse -dse -exhaustive` stdout can be diffed byte for byte (the
// winner is invariant under every DSEOptions combination).
func runDSE(grid string, models []nn.ModelName, dopts batch.DSEOptions) error {
	cands, err := candidatesFor(grid)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   "Design-space exploration winners (thermally-capped space)",
		Columns: []string{"Model", "Winner", "Step", "Energy", "EDP"},
	}
	t.Notes = append(t.Notes,
		"winner = units/freq/processors minimizing step time under the full Hetero PIM runtime")
	for _, model := range models {
		ex, err := batch.ExploreDSE(context.Background(), model, cands, dopts)
		if err != nil {
			return err
		}
		winnerRow(t, model, ex)
		fmt.Fprintf(os.Stderr, "dse: model=%s candidates=%d simulated=%d pruned=%d surrogate_r2=%.3f replays=%d\n",
			model, len(cands), ex.Simulated, ex.Pruned, ex.SurrogateR2, ex.DeltaReplays)
	}
	fmt.Println(t.String())
	return nil
}

// scenarioDSEInputs extracts the DSE inputs from a compiled scenario:
// the distinct models in plan order and the uniform stacks/allreduce
// pair. A DSE run evaluates every candidate under one sharding, so a
// plan mixing stacks or schedules is rejected rather than averaged.
func scenarioDSEInputs(plan *heteropim.ScenarioPlan) ([]nn.ModelName, int, nn.AllReduceKind, error) {
	var models []nn.ModelName
	seen := map[heteropim.Model]bool{}
	stacks, sched := 0, ""
	for i, c := range plan.Cells {
		if !seen[c.Model] {
			seen[c.Model] = true
			models = append(models, c.Model)
		}
		s := c.Stacks
		if s < 1 {
			s = 1
		}
		if i == 0 {
			stacks, sched = s, c.AllReduce
		} else if s != stacks || c.AllReduce != sched {
			return nil, 0, "", fmt.Errorf("scenario mixes stacks/allreduce axes (%d/%q vs %d/%q); DSE needs one sharding",
				stacks, sched, s, c.AllReduce)
		}
	}
	kind, err := nn.ParseAllReduceKind(sched)
	if err != nil {
		return nil, 0, "", err
	}
	return models, stacks, kind, nil
}
