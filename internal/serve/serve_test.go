package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"heteropim"
	"heteropim/internal/scenario"
)

// start spins up a test server; the cleanup drains it.
func start(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		ts.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestSubmitPollResult is the core serving path: POST a job, poll its
// status until done, and check the result bytes are identical to a
// direct public-API run.
func TestSubmitPollResult(t *testing.T) {
	_, ts := start(t, Options{Workers: 2})
	resp, data := post(t, ts.URL, `{"config":"hetero","model":"AlexNet"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %s: %s", resp.Status, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Config != "hetero" || st.Model != "AlexNet" || st.FreqScale != 1 {
		t.Fatalf("bad status document: %+v", st)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, data = get(t, ts.URL+"/v1/jobs/"+st.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job = %s: %s", resp.Status, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == StatusDone || st.Status == StatusFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Status != StatusDone || len(st.Result) == 0 {
		t.Fatalf("job did not complete: %+v", st)
	}

	resp, got := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result = %s: %s", resp.Status, got)
	}
	direct, err := heteropim.Run(heteropim.ConfigHeteroPIM, heteropim.AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, EncodeResult(direct)) {
		t.Fatalf("served result differs from direct run:\n%s\nvs\n%s", got, EncodeResult(direct))
	}
}

// TestDedupCollapsesIdenticalRequests fires a herd of identical posts
// and checks they collapse onto one job (one live run).
func TestDedupCollapsesIdenticalRequests(t *testing.T) {
	s, ts := start(t, Options{Workers: 2})
	const herd = 16
	ids := make([]string, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := post(t, ts.URL, `{"config":"gpu","model":"DCGAN"}`)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("POST %d = %s: %s", i, resp.Status, data)
				return
			}
			var st JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < herd; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("identical requests got different jobs: %q vs %q", ids[i], ids[0])
		}
	}
	resp, _ := get(t, ts.URL+"/v1/jobs/"+ids[0]+"/result?wait=60s")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %s", resp.Status)
	}
	st := s.Stats()
	if st.JobsRun != 1 {
		t.Fatalf("herd of %d caused %d live runs, want 1", herd, st.JobsRun)
	}
	if st.DedupHits != herd-1 {
		t.Fatalf("dedup hits = %d, want %d", st.DedupHits, herd-1)
	}
}

// TestAdmissionControl saturates a 1-worker/1-slot server (by parking
// blockers on its pool directly — deterministic, unlike racing real
// simulations) and checks the excess is shed with 429 + Retry-After;
// once the pool frees up, admission resumes.
func TestAdmissionControl(t *testing.T) {
	s, ts := start(t, Options{Workers: 1, QueueCapacity: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	if err := s.pool.Submit(func(context.Context) { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started // worker occupied; now fill the single queue slot
	if err := s.pool.Submit(func(context.Context) { <-release }); err != nil {
		t.Fatal(err)
	}

	resp, data := post(t, ts.URL, `{"config":"cpu","model":"AlexNet"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST on a full queue = %s (%s), want 429", resp.Status, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 responses must carry Retry-After")
	}

	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, data = post(t, ts.URL, `{"config":"cpu","model":"AlexNet"}`)
		if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusTooManyRequests || time.Now().After(deadline) {
			t.Fatalf("POST after release = %s (%s)", resp.Status, data)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestValidationErrors pins the 400 paths: unknown config, unknown
// model, variant on a non-hetero config, unknown JSON field.
func TestValidationErrors(t *testing.T) {
	_, ts := start(t, Options{Workers: 1})
	for _, body := range []string{
		`{"config":"tpu","model":"AlexNet"}`,
		`{"config":"cpu","model":"GPT-2"}`,
		`{"config":"cpu","model":"AlexNet","variant":{"recursive_kernels":true}}`,
		`{"config":"cpu","model":"AlexNet","bogus":1}`,
		`{"config":"cpu","model":"AlexNet","freq_scale":-1}`,
	} {
		resp, data := post(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s = %s, want 400 (%s)", body, resp.Status, data)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Fatalf("400 body must be a JSON error, got %s", data)
		}
	}
	resp, _ := get(t, ts.URL+"/v1/jobs/nosuchjob")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %s, want 404", resp.Status)
	}
}

// TestJobAxisBounds: POST /v1/jobs and the scenario compiler share the
// cell's axis bounds. Both accept a value at a bound; one past it, the
// compiler refuses the document and the job endpoint answers 400 with
// an error that names the bound.
func TestJobAxisBounds(t *testing.T) {
	_, ts := start(t, Options{Workers: 1, JobTimeout: time.Nanosecond})
	for _, tc := range []struct {
		field, axis string
		bound       int
		// configs is the scenario's platform axis: processor cells
		// imply Hetero PIM and take none.
		configs string
	}{
		{"batch_size", "batch_sizes", scenario.MaxBatchSize, `"configs":["hetero"],`},
		{"stacks", "stacks", scenario.MaxStacks, `"configs":["hetero"],`},
		{"processors", "processors", scenario.MaxProcessors, ""},
	} {
		for _, v := range []int{tc.bound, tc.bound + 1} {
			body := fmt.Sprintf(`{"config":"hetero","model":"AlexNet",%q:%d}`, tc.field, v)
			doc := fmt.Sprintf(`{"scenario":1,"cells":[{"models":["AlexNet"],%s%q:[%d]}]}`, tc.configs, tc.axis, v)
			_, _, jobErr := decodeBody([]byte(body))
			_, planErr := heteropim.CompileScenario([]byte(doc))
			if v == tc.bound {
				if jobErr != nil || planErr != nil {
					t.Errorf("%s %d (the bound): job %v, scenario %v; want both accepted", tc.field, v, jobErr, planErr)
				}
				continue
			}
			if planErr == nil {
				t.Errorf("scenario %s [%d] compiled, want it refused", tc.axis, v)
			}
			resp, data := post(t, ts.URL, body)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), strconv.Itoa(tc.bound)) {
				t.Errorf("POST %s = %s %s, want 400 naming the bound %d", body, resp.Status, data, tc.bound)
			}
		}
	}
}

// TestVariantJob checks a hetero variant cell runs and matches the
// direct Simulate encoding.
func TestVariantJob(t *testing.T) {
	_, ts := start(t, Options{Workers: 2})
	resp, data := post(t, ts.URL,
		`{"config":"hetero","model":"AlexNet","variant":{"recursive_kernels":true,"operation_pipeline":false}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %s: %s", resp.Status, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	resp, got := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result?wait=60s")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %s: %s", resp.Status, got)
	}
	direct, err := heteropim.Simulate(heteropim.BatchCell{
		Model: heteropim.AlexNet, Variant: &heteropim.Variant{RecursiveKernels: true}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, EncodeResult(direct)) {
		t.Fatal("served variant result differs from direct Simulate")
	}
}

// TestMetricsHealthReady checks the Prometheus scrape and the health
// endpoints, including readyz flipping to 503 on drain.
func TestMetricsHealthReady(t *testing.T) {
	s, ts := start(t, Options{Workers: 1})
	_, data := post(t, ts.URL, `{"config":"cpu","model":"AlexNet"}`)
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if resp, got := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result?wait=60s"); resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %s: %s", resp.Status, got)
	}

	// Runner pool gauges, refreshed at scrape time; once the job is done
	// the server is idle, so both must read 0. The pool lowers its busy
	// gauge only after the job function returns, a moment after the
	// result is published, so poll for it under a deadline.
	idle := []string{"heteropim_runner_workers_busy 0", "heteropim_runner_queue_depth 0"}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var resp *http.Response
		resp, data = get(t, ts.URL+"/metrics")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics = %s", resp.Status)
		}
		if strings.Contains(string(data), idle[0]) && strings.Contains(string(data), idle[1]) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("runner gauges never read idle:\n%s", data)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, want := range append([]string{
		"heteropim_serve_requests 1",
		"# TYPE heteropim_serve_queue_depth gauge",
		"heteropim_http_seconds_post_jobs_count",
		"heteropim_simcache_hits",
	}, idle...) {
		if !strings.Contains(string(data), want) {
			t.Fatalf("metrics scrape missing %q:\n%s", want, data)
		}
	}

	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %s", resp.Status)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %s", resp.Status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %s, want 503", resp.Status)
	}
	if resp, _ := post(t, ts.URL, `{"config":"cpu","model":"DCGAN"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %s, want 503", resp.Status)
	}
	// Results stay readable after the drain.
	jobs := s.Jobs()
	if len(jobs) != 1 || jobs[0].Status != StatusDone {
		t.Fatalf("drained server lost its jobs: %+v", jobs)
	}
}

// TestStatusPage checks the text status page renders the jobs table.
func TestStatusPage(t *testing.T) {
	_, ts := start(t, Options{Workers: 1})
	post(t, ts.URL, `{"config":"fixed","model":"AlexNet"}`)
	resp, data := get(t, ts.URL+"/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status page = %s", resp.Status)
	}
	for _, want := range []string{"pimserve jobs", "fixed/AlexNet@1x", "workers="} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("status page missing %q:\n%s", want, data)
		}
	}
}

// TestSSEEvents checks the event stream delivers a status snapshot and
// a terminal end event; an instrumented job also reports progress.
func TestSSEEvents(t *testing.T) {
	_, ts := start(t, Options{Workers: 1})
	resp, data := post(t, ts.URL, `{"config":"hetero","model":"DCGAN","instrument":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %s: %s", resp.Status, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	stream, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	types := map[string]int{}
	scanner := bufio.NewScanner(stream.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "event: ") {
			types[strings.TrimPrefix(line, "event: ")]++
		}
	}
	if types["status"] == 0 || types["end"] == 0 {
		t.Fatalf("stream missing status/end events: %v", types)
	}
}

// TestInstrumentedResultMatchesPlain checks an instrumented job's
// served bytes still match the uninstrumented direct run (PR-2
// bit-identity carried through the wire).
func TestInstrumentedResultMatchesPlain(t *testing.T) {
	_, ts := start(t, Options{Workers: 1})
	resp, data := post(t, ts.URL, `{"config":"gpu","model":"AlexNet","instrument":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %s: %s", resp.Status, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	resp, got := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result?wait=60s")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %s: %s", resp.Status, got)
	}
	direct, err := heteropim.Run(heteropim.ConfigGPU, heteropim.AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, EncodeResult(direct)) {
		t.Fatal("instrumented served result differs from plain direct run")
	}
}

// TestAdmissionDoesNotWait checks that admission never holds a job
// back: even a server built with an hour-long CoalesceWindow hands a
// first-seen job straight to the pool, so its result is ready well
// inside a 10 s long-poll.
func TestAdmissionDoesNotWait(t *testing.T) {
	s, ts := start(t, Options{Workers: 2, CoalesceWindow: time.Hour})
	resp, data := post(t, ts.URL, `{"config":"hetero","model":"AlexNet"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %s: %s", resp.Status, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	resp, got := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result?wait=10s")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result = %s: %s (the job waited at admission)", resp.Status, got)
	}
	direct, err := heteropim.Run(heteropim.ConfigHeteroPIM, heteropim.AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, EncodeResult(direct)) {
		t.Fatal("served result differs from the direct run")
	}
	if runs := s.Stats().JobsRun; runs != 1 {
		t.Fatalf("jobs_run = %d, want 1", runs)
	}
}

// TestCoalesceDuplicateIDsCollapse fires a herd of identical posts at a
// server built with a CoalesceWindow and checks the jobs-map dedup
// still runs before admission, with no window to hold the herd: one
// job, one live run, dedup_hits herd-1, and the result ready well
// inside a 10 s long-poll.
func TestCoalesceDuplicateIDsCollapse(t *testing.T) {
	s, ts := start(t, Options{Workers: 2, CoalesceWindow: time.Hour})
	const herd = 12
	ids := make([]string, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, data := post(t, ts.URL, `{"config":"hetero","model":"AlexNet"}`)
			var st JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("duplicate posts produced distinct jobs: %s vs %s", id, ids[0])
		}
	}
	resp, got := get(t, ts.URL+"/v1/jobs/"+ids[0]+"/result?wait=10s")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result = %s: %s (the herd waited at admission)", resp.Status, got)
	}
	stats := s.Stats()
	if stats.JobsRun != 1 {
		t.Fatalf("jobs_run = %d, want 1 (duplicates must collapse before admission)", stats.JobsRun)
	}
	if stats.DedupHits != herd-1 {
		t.Fatalf("dedup_hits = %d, want %d", stats.DedupHits, herd-1)
	}
}

// TestPeerAdoption wires a stub PeerAsk and checks a job whose bytes
// the "fleet" already has is adopted instead of simulated: peer_hits
// counts it, jobs_run does not, and the job serves the peer's bytes.
func TestPeerAdoption(t *testing.T) {
	direct, err := heteropim.Run(heteropim.ConfigHeteroPIM, heteropim.AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	want := EncodeResult(direct)
	s, ts := start(t, Options{
		Workers: 2,
		PeerAsk: func(ctx context.Context, jobID string) ([]byte, bool) {
			return want, true
		},
	})
	_, data := post(t, ts.URL, `{"config":"hetero","model":"AlexNet"}`)
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	resp, got := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result?wait=60s")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result = %s: %s", resp.Status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("adopted bytes differ from the peer's answer")
	}
	stats := s.Stats()
	if stats.PeerHits != 1 {
		t.Fatalf("peer_hits = %d, want 1", stats.PeerHits)
	}
	if stats.JobsRun != 0 {
		t.Fatalf("jobs_run = %d, want 0 (adoption must replace the local simulation)", stats.JobsRun)
	}
}

// TestClientCancelDoesNotPoisonJob cancels a client's context right
// after its POST returns and checks that neither its job nor a
// concurrent one is harmed: a job depends only on the server's
// lifecycle, never on the client that submitted it.
func TestClientCancelDoesNotPoisonJob(t *testing.T) {
	s, ts := start(t, Options{Workers: 2})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"config":"hetero","model":"AlexNet"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var doomed JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&doomed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()

	// A second client submits a different cell while the first job is
	// queued or running.
	_, data := post(t, ts.URL, `{"config":"gpu","model":"AlexNet"}`)
	var mate JobStatus
	if err := json.Unmarshal(data, &mate); err != nil {
		t.Fatal(err)
	}

	var got []byte
	for _, id := range []string{doomed.ID, mate.ID} {
		var resp *http.Response
		if resp, got = get(t, ts.URL+"/v1/jobs/"+id+"/result?wait=60s"); resp.StatusCode != http.StatusOK {
			t.Fatalf("job %s after a client cancel: %s: %s", id, resp.Status, got)
		}
	}
	direct, err := heteropim.Run(heteropim.ConfigGPU, heteropim.AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, EncodeResult(direct)) {
		t.Fatal("concurrent job's result corrupted by another client's cancel")
	}
	if runs := s.Stats().JobsRun; runs != 2 {
		t.Fatalf("jobs_run = %d, want 2", runs)
	}
}
