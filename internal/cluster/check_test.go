package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
	"time"

	"heteropim/internal/serve"
)

// TestRunCheckSmall drives the full kill-and-recover choreography on a
// light two-cell mix: three replicas plus router, a victim drained and
// recovered mid-load, and every production gate (zero errors,
// byte-identical results, cluster dedup >= single-node, at least one
// rehash / retried submission / peer adoption).
func TestRunCheckSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full cluster choreography is too heavy for -short")
	}
	rep, err := RunCheck(CheckOptions{
		Replicas: 3,
		Clients:  12,
		Cells: []serve.LoadCell{
			{Config: "hetero", Model: "AlexNet"},
			{Config: "gpu", Model: "AlexNet"},
		},
		Workers:        2,
		HealthInterval: 50 * time.Millisecond,
		Log:            io.Discard,
	})
	if err != nil {
		t.Fatalf("RunCheck gates failed: %v (report: %+v)", err, rep)
	}

	if rep.Errors != 0 {
		t.Fatalf("client errors = %d, want 0", rep.Errors)
	}
	if !rep.ByteIdentical {
		t.Fatal("routed results were not byte-identical to direct runs")
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
