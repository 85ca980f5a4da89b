package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heteropim"
	"heteropim/internal/serve"
)

// stubReplica is a fake pimserve backend: it remembers which ids were
// POSTed to it, serves results for the ids it was seeded with, and can
// flip into the draining state (503 on submit and readyz), all without
// running a single simulation.
type stubReplica struct {
	ts       *httptest.Server
	draining atomic.Bool
	mu       sync.Mutex
	submits  []string
	results  map[string][]byte
}

func newStubReplica(t *testing.T) *stubReplica {
	t.Helper()
	s := &stubReplica{results: map[string][]byte{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
			return
		}
		var req serve.JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id, err := serve.JobID(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		s.submits = append(s.submits, id)
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "{\"id\":%q}\n", id)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		body, ok := s.results[r.PathValue("id")]
		s.mu.Unlock()
		if !ok {
			http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

func (s *stubReplica) submitted() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.submits...)
}

// startRouter wires a router over the stubs with a slow health loop so
// tests exercise the forward-failure path deterministically, not the
// probe race.
func startRouter(t *testing.T, stubs ...*stubReplica) (*Router, *httptest.Server) {
	t.Helper()
	members := make([]Replica, len(stubs))
	for i, s := range stubs {
		members[i] = Replica{Name: fmt.Sprintf("replica-%d", i), BaseURL: s.ts.URL}
	}
	rt := NewRouter(RouterOptions{Replicas: members, HealthInterval: time.Hour})
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { rt.Close(); ts.Close() })
	return rt, ts
}

func submitCell(t *testing.T, routerURL, model string) string {
	t.Helper()
	body := fmt.Sprintf(`{"config":"hetero","model":%q}`, model)
	resp, err := http.Post(routerURL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s via router = %s", model, resp.Status)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// TestRouterRoutesByJobID checks that every duplicate of a cell lands
// on the same replica (so it deduplicates there) and that the landing
// spot matches the ring's own Owner answer.
func TestRouterRoutesByJobID(t *testing.T) {
	stubs := []*stubReplica{newStubReplica(t), newStubReplica(t), newStubReplica(t)}
	rt, ts := startRouter(t, stubs...)

	models := []string{"AlexNet", "VGG-19", "DCGAN", "ResNet-50"}
	for _, m := range models {
		var id string
		for rep := 0; rep < 3; rep++ {
			id = submitCell(t, ts.URL, m)
		}
		owner, ok := rt.Owner(id)
		if !ok {
			t.Fatalf("no owner for %s", id)
		}
		var idx int
		fmt.Sscanf(owner, "replica-%d", &idx)
		n := 0
		for _, got := range stubs[idx].submitted() {
			if got == id {
				n++
			}
		}
		if n != 3 {
			t.Fatalf("owner %s of %s saw %d submissions, want all 3", owner, m, n)
		}
		for i, s := range stubs {
			if i == idx {
				continue
			}
			for _, got := range s.submitted() {
				if got == id {
					t.Fatalf("replica-%d also received %s owned by %s", i, id, owner)
				}
			}
		}
	}
}

// TestRouterRetriesDrainingOwner flips a job's owner into the draining
// state and checks the in-flight submission is rehashed and retried on
// a survivor instead of failing back to the client.
func TestRouterRetriesDrainingOwner(t *testing.T) {
	stubs := []*stubReplica{newStubReplica(t), newStubReplica(t), newStubReplica(t)}
	rt, ts := startRouter(t, stubs...)

	id := submitCell(t, ts.URL, "AlexNet")
	owner, _ := rt.Owner(id)
	var idx int
	fmt.Sscanf(owner, "replica-%d", &idx)
	stubs[idx].draining.Store(true)

	// The same cell again: first attempt 503s on the draining owner,
	// the retry must land on a survivor.
	id2 := submitCell(t, ts.URL, "AlexNet")
	if id2 != id {
		t.Fatalf("job id changed across submissions: %s vs %s", id2, id)
	}
	if rt.Registry().CounterValue("cluster.retries") < 1 {
		t.Fatal("draining owner did not bump cluster.retries")
	}
	if rt.ring.Has(owner) {
		t.Fatalf("draining owner %s still in the ring", owner)
	}
	newOwner, ok := rt.Owner(id)
	if !ok || newOwner == owner {
		t.Fatalf("range did not rehash: owner still %q", newOwner)
	}
	var nidx int
	fmt.Sscanf(newOwner, "replica-%d", &nidx)
	found := false
	for _, got := range stubs[nidx].submitted() {
		if got == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("retried submission never reached new owner %s", newOwner)
	}
}

// TestRouterReadFanOut strands a finished job on a non-owner (as a
// rehash would) and checks a read through the router still finds it via
// the fan-out fallback.
func TestRouterReadFanOut(t *testing.T) {
	stubs := []*stubReplica{newStubReplica(t), newStubReplica(t), newStubReplica(t)}
	rt, ts := startRouter(t, stubs...)

	const id = "deadbeefdeadbeefdeadbeefdeadbeef"
	owner, _ := rt.Owner(id)
	var idx int
	fmt.Sscanf(owner, "replica-%d", &idx)
	holder := (idx + 1) % len(stubs)
	want := []byte(`{"stranded":true}`)
	stubs[holder].mu.Lock()
	stubs[holder].results[id] = want
	stubs[holder].mu.Unlock()

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fan-out read = %s", resp.Status)
	}
	var got struct {
		Stranded bool `json:"stranded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || !got.Stranded {
		t.Fatalf("fan-out returned wrong body (err=%v, got=%+v)", err, got)
	}
	if rt.Registry().CounterValue("cluster.reroutes") < 1 {
		t.Fatal("stranded read did not bump cluster.reroutes")
	}
}

// TestRouterMetricsAndReadyz checks the router's own observability: the
// Prometheus exposition carries heteropim_cluster_* series and /readyz
// tracks whether any replica is left in the ring.
func TestRouterMetricsAndReadyz(t *testing.T) {
	stubs := []*stubReplica{newStubReplica(t), newStubReplica(t)}
	rt, ts := startRouter(t, stubs...)
	submitCell(t, ts.URL, "AlexNet")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, series := range []string{
		"heteropim_cluster_requests",
		"heteropim_cluster_replicas 2",
		"heteropim_cluster_replicas_ready 2",
		"heteropim_cluster_forwarded_replica_",
	} {
		if !strings.Contains(text, series) {
			t.Fatalf("metrics exposition missing %q:\n%s", series, text)
		}
	}

	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with ready replicas = %s", resp.Status)
	} else {
		resp.Body.Close()
	}
	rt.RemoveReplica("replica-0")
	rt.RemoveReplica("replica-1")
	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with empty ring = %s, want 503", resp2.Status)
	}
}

// TestReplicaAnnounce covers self-registration: a router that starts
// with an empty fleet accepts POST /v1/replicas (the `pimserve
// -announce` payload), lists the member on GET, routes to it, and
// rejects malformed announcements.
func TestReplicaAnnounce(t *testing.T) {
	rt := NewRouter(RouterOptions{HealthInterval: time.Hour})
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Empty fleet: not ready, nothing listed.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty-fleet readyz = %s, want 503", resp.Status)
	}

	stub := newStubReplica(t)
	defer stub.ts.Close()
	if err := Announce(nil, ts.URL, Replica{Name: "worker-a", BaseURL: stub.ts.URL}); err != nil {
		t.Fatalf("Announce: %v", err)
	}

	resp, err = http.Get(ts.URL + "/v1/replicas")
	if err != nil {
		t.Fatal(err)
	}
	var listed []ReplicaStatus
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listed) != 1 || listed[0].Name != "worker-a" || listed[0].BaseURL != stub.ts.URL || !listed[0].Ready {
		t.Fatalf("replica list: %+v", listed)
	}
	if nodes := rt.ReadyReplicas(); len(nodes) != 1 || nodes[0] != "worker-a" {
		t.Fatalf("ring members: %v", nodes)
	}

	// A routed submit now lands on the announced replica.
	body := `{"config":"hetero","model":"VGG-19"}`
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("routed submit = %s, want 202", resp.Status)
	}
	if got := stub.submitted(); len(got) != 1 {
		t.Fatalf("stub saw %d submits, want 1", len(got))
	}

	// Malformed announcements are rejected.
	for name, bad := range map[string]string{
		"no name":       `{"base_url":"http://127.0.0.1:1"}`,
		"no url":        `{"name":"x"}`,
		"not a url":     `{"name":"x","base_url":"127.0.0.1:1"}`,
		"unknown field": `{"name":"x","base_url":"http://127.0.0.1:1","extra":true}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/replicas", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, want 400", name, resp.Status)
		}
	}
}

// TestReplicaDepart covers the graceful-drain announcement: DELETE
// /v1/replicas/{name} pulls the replica's range out of the ring at
// once (counted as a departure rehash), leaves it a fleet member so a
// recovery restores its range, and 404s unknown names.
func TestReplicaDepart(t *testing.T) {
	rt := NewRouter(RouterOptions{HealthInterval: time.Hour})
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	stub := newStubReplica(t)
	defer stub.ts.Close()
	if err := Announce(nil, ts.URL, Replica{Name: "worker-a", BaseURL: stub.ts.URL}); err != nil {
		t.Fatalf("Announce: %v", err)
	}
	if nodes := rt.ReadyReplicas(); len(nodes) != 1 {
		t.Fatalf("ring members before depart: %v", nodes)
	}

	if err := Depart(nil, ts.URL, "worker-a"); err != nil {
		t.Fatalf("Depart: %v", err)
	}
	if nodes := rt.ReadyReplicas(); len(nodes) != 0 {
		t.Fatalf("ring members after depart: %v", nodes)
	}
	reg := rt.Registry()
	if got := reg.CounterValue("cluster.departures"); got != 1 {
		t.Fatalf("cluster.departures = %.0f, want 1", got)
	}
	if got := reg.CounterValue("cluster.unready.depart"); got != 1 {
		t.Fatalf("cluster.unready.depart = %.0f, want 1", got)
	}

	// Still a fleet member: listed unready, and a re-announce (or a
	// /readyz recovery) brings the same range back.
	resp, err := http.Get(ts.URL + "/v1/replicas")
	if err != nil {
		t.Fatal(err)
	}
	var listed []ReplicaStatus
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listed) != 1 || listed[0].Name != "worker-a" || listed[0].Ready {
		t.Fatalf("replica list after depart: %+v", listed)
	}
	if err := Announce(nil, ts.URL, Replica{Name: "worker-a", BaseURL: stub.ts.URL}); err != nil {
		t.Fatalf("re-announce: %v", err)
	}
	if nodes := rt.ReadyReplicas(); len(nodes) != 1 || nodes[0] != "worker-a" {
		t.Fatalf("ring members after re-announce: %v", nodes)
	}

	// A departure for a name the router never met is a 404, not a
	// silent success.
	if err := Depart(nil, ts.URL, "stranger"); err == nil {
		t.Fatal("depart of an unknown replica succeeded")
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/replicas/stranger", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown depart = %s, want 404", resp2.Status)
	}
}

// TestRouterScenarios posts the committed paper grid to a router over
// three real replicas: the reply has the replicas' shape, each unique
// cell became the job its own POST /v1/jobs would have named, every
// job is read back from its owner with no reroute, and the served
// bytes equal a direct run.
func TestRouterScenarios(t *testing.T) {
	var members []Replica
	var replicas []*serve.Server
	for i := 0; i < 3; i++ {
		s := serve.New(serve.Options{Workers: 2})
		replicas = append(replicas, s)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = s.Drain(ctx)
			ts.Close()
		})
		members = append(members, Replica{Name: fmt.Sprintf("replica-%d", i), BaseURL: ts.URL})
	}
	rt := NewRouter(RouterOptions{Replicas: members, HealthInterval: time.Hour})
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { rt.Close(); ts.Close() })

	doc, err := os.ReadFile("../../testdata/scenarios/paper_grid.json")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := heteropim.CompileScenario(doc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var sr serve.ScenarioResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/scenarios via router = %s (%v)", resp.Status, err)
	}
	if sr.Requested != 25 || len(sr.Jobs) != len(plan.Cells) {
		t.Fatalf("requested %d with %d jobs, want 25 with %d", sr.Requested, len(sr.Jobs), len(plan.Cells))
	}

	reroutes := rt.Registry().CounterValue("cluster.reroutes")
	client := &http.Client{Timeout: time.Minute}
	for i, bc := range plan.Cells {
		id, err := serve.JobID(serve.RequestFromBatch(bc))
		if err != nil {
			t.Fatal(err)
		}
		if sr.Jobs[i].ID != id {
			t.Fatalf("cell %d (%+v) became job %s, want %s", i, bc, sr.Jobs[i].ID, id)
		}
		resp, err := client.Get(ts.URL + "/v1/jobs/" + id + "/result?wait=60s")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s via router = %s: %s", id, resp.Status, got)
		}
		if bc.Config == heteropim.ConfigCPU && bc.Model == heteropim.VGG19 {
			direct, err := heteropim.Run(heteropim.ConfigCPU, heteropim.VGG19)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, serve.EncodeResult(direct)) {
				t.Fatal("CPU/VGG-19 served via the router differs from the direct run")
			}
		}
	}
	if got := rt.Registry().CounterValue("cluster.reroutes"); got != reroutes {
		t.Fatalf("reading the scenario's jobs rerouted %.0f reads; each should be on its owner", got-reroutes)
	}

	// A cell with no job body form (a variant with a batch size) refuses
	// the whole document before any cell reaches a replica.
	submitted := func() (n float64) {
		for _, s := range replicas {
			n += s.Registry().CounterValue("serve.requests")
		}
		return n
	}
	before := submitted()
	bad := `{"scenario":1,"cells":[{"models":["AlexNet","VGG-19"],"batch_sizes":[16],"variants":[{"recursive_kernels":true}]}]}`
	resp, err = http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || submitted() != before {
		t.Fatalf("scenario without a job form = %s and sent %.0f cells; want 400 and none", resp.Status, submitted()-before)
	}
}
