package main

import (
	"context"
	"flag"
	"slices"
	"testing"

	"heteropim/internal/batch"
	"heteropim/internal/core"
	"heteropim/internal/nn"
)

// exploreOptions parses args with pimdse's exploration flags.
func exploreOptions(t *testing.T, args ...string) batch.DSEOptions {
	t.Helper()
	fs := flag.NewFlagSet("pimdse", flag.ContinueOnError)
	f := newExploreFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	opts, err := f.options()
	if err != nil {
		t.Fatal(err)
	}
	return opts
}

// TestDSEPinnedCounts pins what `pimdse -dse` decides on each grid with
// its shipped options: the candidate count, and per model the
// simulated/pruned split and the winner. The exploration is
// deterministic, so the values are exact on every host. The result
// cache is off, so no split depends on what an earlier test left in it.
//
// On the XL grid, exhaustive search over every xlVerifyStride-th
// candidate plus the winner must return the same winner. The subset
// holds the winner, so a better candidate in it would mean the bound
// pruned wrongly.
func TestDSEPinnedCounts(t *testing.T) {
	defer core.EnableResultCache(core.EnableResultCache(false))
	opts := exploreOptions(t)
	exhaustive := exploreOptions(t, "-exhaustive")
	type pin struct {
		model             nn.ModelName
		simulated, pruned int
		winner            string
	}
	for _, tc := range []struct {
		grid       string
		candidates int
		pins       []pin
	}{
		{"paper", 24, []pin{
			{nn.AlexNetName, 12, 12, "438u/1x/1P"},
			{nn.DCGANName, 13, 11, "108u/4x/1P"},
		}},
		{"large", 417, []pin{
			{nn.AlexNetName, 81, 336, "882u/0.5x/1P"},
			{nn.DCGANName, 73, 344, "882u/0.5x/1P"},
		}},
		{"xl", 2232, []pin{
			{nn.AlexNetName, 313, 1919, "354u/1.25x/1P"},
			{nn.DCGANName, 297, 1935, "844u/0.5x/1P"},
		}},
	} {
		cands, err := candidatesFor(tc.grid)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != tc.candidates {
			t.Errorf("%s grid: %d candidates, want %d", tc.grid, len(cands), tc.candidates)
		}
		for _, p := range tc.pins {
			ex, err := batch.ExploreDSE(context.Background(), p.model, cands, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Simulated != p.simulated || ex.Pruned != p.pruned {
				t.Errorf("%s %s: simulated/pruned = %d/%d, want %d/%d",
					tc.grid, p.model, ex.Simulated, ex.Pruned, p.simulated, p.pruned)
			}
			if got := ex.Winner.Candidate.String(); got != p.winner {
				t.Errorf("%s %s: winner %s, want %s", tc.grid, p.model, got, p.winner)
			}
			if tc.grid != "xl" {
				continue
			}
			verify, err := xlVerifyCandidates()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(verify, ex.Winner.Candidate) {
				verify = append(verify, ex.Winner.Candidate)
			}
			exh, err := batch.ExploreDSE(context.Background(), p.model, verify, exhaustive)
			if err != nil {
				t.Fatal(err)
			}
			if exh.Winner.Candidate != ex.Winner.Candidate || exh.Winner.Result.StepTime != ex.Winner.Result.StepTime {
				t.Errorf("xl %s: exhaustive search over %d verify candidates found %v (%.17g s), optimized chose %v (%.17g s)",
					p.model, len(verify), exh.Winner.Candidate, exh.Winner.Result.StepTime,
					ex.Winner.Candidate, ex.Winner.Result.StepTime)
			}
		}
	}
}
