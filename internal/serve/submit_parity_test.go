package serve_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"heteropim/internal/cluster"
	"heteropim/internal/serve"
)

// startReplica runs a replica whose admitted jobs time out in the queue
// (a one-nanosecond job timeout), so a test can submit any accepted
// body without simulating it.
func startReplica(t *testing.T) (*serve.Server, string) {
	t.Helper()
	s := serve.New(serve.Options{Workers: 1, JobTimeout: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		ts.Close()
	})
	return s, ts.URL
}

// submitStatus POSTs body to base's /v1/jobs and returns the status.
func submitStatus(t *testing.T, base string, body []byte) int {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestRouterAndReplicaAgreeOnJobBodies sends every FuzzJobRequest seed
// through a router and straight to a replica and requires the same
// status: the router must not forward a body a replica rejects, nor
// reject one a replica accepts. Each seed gets fresh servers, so an
// accepted body is a new job on both paths.
func TestRouterAndReplicaAgreeOnJobBodies(t *testing.T) {
	names, bodies := serve.JobRequestSeeds(t)
	for i, body := range bodies {
		t.Run(names[i], func(t *testing.T) {
			_, direct := startReplica(t)
			behind, url := startReplica(t)
			rt := cluster.NewRouter(cluster.RouterOptions{Replicas: []cluster.Replica{{Name: "replica-0", BaseURL: url}}})
			defer rt.Close()
			rts := httptest.NewServer(rt.Handler())
			defer rts.Close()

			want := submitStatus(t, direct, body)
			got := submitStatus(t, rts.URL, body)
			if got != want {
				t.Fatalf("body %q: router answered %d, replica %d", body, got, want)
			}
			forwarded := behind.Registry().CounterValue("serve.requests")
			bad := rt.Registry().CounterValue("cluster.bad_requests")
			if want == http.StatusBadRequest && (bad != 1 || forwarded != 0) {
				t.Errorf("rejected body %q: cluster.bad_requests %g, forwarded %g times; want 1 and 0", body, bad, forwarded)
			}
			if want != http.StatusBadRequest && (bad != 0 || forwarded != 1) {
				t.Errorf("accepted body %q: cluster.bad_requests %g, forwarded %g times; want 0 and 1", body, bad, forwarded)
			}
		})
	}
}
