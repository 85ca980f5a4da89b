package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"heteropim"
)

// TestRunCheckSmall drives the full choreography on a light two-cell
// mix: a single replica, then three replicas plus router with a victim
// drained and recovered mid-load, and every production gate (zero
// errors, byte-identical results, one simulation per job on the single
// replica, cluster dedup >= single-node, at least one rehash / retried
// submission / peer adoption).
func TestRunCheckSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full cluster choreography is too heavy for -short")
	}
	defer heteropim.SetSimulationCacheDir(heteropim.SetSimulationCacheDir(""))
	heteropim.ResetSimulationCache()
	plan := &heteropim.ScenarioPlan{Name: "small", Cells: []heteropim.BatchCell{
		{Config: heteropim.ConfigHeteroPIM, Model: heteropim.AlexNet},
		{Config: heteropim.ConfigGPU, Model: heteropim.AlexNet},
	}}
	rep, err := RunCheck(CheckOptions{Plan: plan, Clients: 12, Workers: 2, Log: io.Discard})
	if err != nil {
		t.Fatalf("RunCheck gates failed: %v (report: %+v)", err, rep)
	}

	if rep.Errors != 0 {
		t.Fatalf("client errors = %d, want 0", rep.Errors)
	}
	if !rep.ByteIdentical {
		t.Fatal("routed results were not byte-identical to direct runs")
	}
	if rep.Single.LiveRuns != 2 {
		t.Fatalf("single replica ran %d simulations for 2 cells", rep.Single.LiveRuns)
	}
	// The truth costs one miss per cell, then each job run one more: a
	// served job that hit the cache would be checked against itself.
	if misses := heteropim.SimulationCacheStats().Misses; misses != 2+rep.Single.LiveRuns+rep.Cluster.LiveRuns {
		t.Errorf("%d cache misses for 2 cells and %d+%d job runs: served jobs were cache hits of the truth",
			misses, rep.Single.LiveRuns, rep.Cluster.LiveRuns)
	}
	if rep.Cluster.Dedup < rep.Single.Dedup-1e-9 {
		t.Fatalf("cluster dedup %.2fx below single-node %.2fx", rep.Cluster.Dedup, rep.Single.Dedup)
	}
	if rep.Single.Requests != rep.Cluster.Requests {
		t.Fatalf("phases served different client counts: %d vs %d — dedup ratios not comparable",
			rep.Single.Requests, rep.Cluster.Requests)
	}
	if rep.Rehashes < 1 || rep.Retries < 1 {
		t.Fatalf("kill path not exercised: rehashes=%.0f retries=%.0f", rep.Rehashes, rep.Retries)
	}
	if rep.Cluster.PeerHits < 1 {
		t.Fatal("no cross-replica adoptions: PeerAsk path not exercised")
	}
	if rep.Killed == "" || !rep.Recovered {
		t.Fatalf("kill-and-recover incomplete: killed=%q recovered=%t", rep.Killed, rep.Recovered)
	}

	// The report must serialize into the BENCH_cluster.json shape CI
	// uploads, and round-trip its gate fields.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("BENCH_cluster.json is not valid JSON: %v", err)
	}
	for _, key := range []string{"replicas", "single", "cluster", "killed_replica", "byte_identical", "cluster_dedup_ge_single"} {
		if _, ok := back[key]; !ok {
			t.Fatalf("BENCH_cluster.json missing %q:\n%s", key, buf.String())
		}
	}
}

// TestRunCheckScenarios serves every committed scenario document
// through the check: each compiles and passes every gate, whatever its
// cell axes (batch size, frequency, stacks, variants) or arrival
// process.
func TestRunCheckScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("full cluster choreography is too heavy for -short")
	}
	paths, err := filepath.Glob("../../testdata/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed scenarios (%v)", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := heteropim.CompileScenario(data)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := RunCheck(CheckOptions{Plan: plan, Log: io.Discard})
			if err != nil {
				t.Fatalf("RunCheck: %v (report: %+v)", err, rep)
			}
			if rep.Errors != 0 || !rep.ByteIdentical || !rep.DedupOK {
				t.Fatalf("errors=%d identical=%t dedup_ok=%t", rep.Errors, rep.ByteIdentical, rep.DedupOK)
			}
		})
	}
}
