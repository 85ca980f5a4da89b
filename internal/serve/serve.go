// Package serve is the simulation-as-a-service layer: an HTTP JSON
// daemon that accepts simulation cells as jobs, runs them on a bounded
// worker pool (internal/runner.Pool) behind a fixed-capacity admission
// queue, deduplicates identical requests onto one job (which itself
// rides the content-addressed result cache), and exposes polling, SSE
// progress streaming, Prometheus metrics and health endpoints.
//
// Admission control: a full queue sheds load with 429 + Retry-After
// instead of queueing unboundedly — the client, not the server, owns
// the retry budget. Dedup: a job's ID is the content address of its
// cell, so a thundering herd of identical requests collapses onto one
// record and at most one live simulation. Drain: Drain stops admission
// (readyz flips to 503), finishes every accepted job, and leaves every
// result readable until shutdown.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"heteropim"
	"heteropim/internal/metrics"
	"heteropim/internal/report"
	"heteropim/internal/runner"
)

// Options configures a Server.
type Options struct {
	// Workers is the simulation pool width (<= 0: runner.Workers()).
	Workers int
	// QueueCapacity bounds the admission queue (<= 0: 64).
	QueueCapacity int
	// JobTimeout bounds a job's queue wait: jobs still queued when it
	// expires fail instead of running (a discrete-event simulation is
	// not preemptible once started). <= 0: 2 minutes.
	JobTimeout time.Duration
	// CoalesceWindow is ignored: admission never waits, and every
	// admitted job goes straight to the pool.
	//
	// Deprecated: kept only because the benchmark module still sets it;
	// delete it once the benchmark no longer does.
	CoalesceWindow time.Duration
	// PeerAsk, when set, is consulted before simulating a locally-new
	// job: given the job id it may return the canonical result bytes
	// another replica already computed (cross-replica dedup). The
	// cluster layer wires this to HTTP asks against the fleet.
	PeerAsk func(ctx context.Context, jobID string) ([]byte, bool)
}

// Server is one simulation-serving daemon instance.
type Server struct {
	pool       *runner.Pool
	reg        *metrics.Registry
	mux        *http.ServeMux
	jobTimeout time.Duration
	start      time.Time
	peerAsk    func(ctx context.Context, jobID string) ([]byte, bool)

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // insertion order for the status page
	draining bool
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	if opts.QueueCapacity <= 0 {
		opts.QueueCapacity = 64
	}
	if opts.JobTimeout <= 0 {
		opts.JobTimeout = 2 * time.Minute
	}
	s := &Server{
		pool:       runner.NewPool(opts.Workers, opts.QueueCapacity),
		reg:        metrics.NewRegistry(),
		mux:        http.NewServeMux(),
		jobTimeout: opts.JobTimeout,
		start:      time.Now(),
		peerAsk:    opts.PeerAsk,
		jobs:       map[string]*Job{},
	}
	s.mux.HandleFunc("POST /v1/jobs", s.route("post_jobs", s.handleSubmit))
	s.mux.HandleFunc("POST /v1/scenarios", s.route("post_scenarios", s.handleScenarios))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.route("get_job", s.handleJob))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.route("get_result", s.handleResult))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents) // streams; no latency histogram
	s.mux.HandleFunc("GET /metrics", s.route("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.route("readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /{$}", s.route("status_page", s.handleStatusPage))
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// route wraps a handler with the per-endpoint latency histogram and
// request counter.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		s.reg.Add("http.requests."+name, 1)
		s.reg.Observe("http.seconds."+name, time.Since(t0).Seconds())
	}
}

// writeJSON writes v as a JSON response with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// errorBody is the JSON error shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// handleSubmit admits one simulation cell: validate, dedup onto an
// existing job, or enqueue a new one. A full queue is 429 +
// Retry-After; a draining server is 503.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.reg.Add("serve.requests", 1)
	_, c, err := decodeJobRequest(w, r.Body)
	if err != nil {
		s.reg.Add("serve.bad_requests", 1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, code, err := s.admit(c)
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, code, st)
}

// decodeJobRequest reads one POST /v1/jobs body — at most 1 MiB, one
// JSON object with no unknown fields and nothing after it — and
// validates it into its cell. It is the job request's only decoder: the
// replica's submit handler calls it directly, the router and
// FuzzJobRequest through DecodeJobRequest, so the two tiers accept and
// reject exactly the same bodies.
func decodeJobRequest(w http.ResponseWriter, body io.ReadCloser) (JobRequest, cell, error) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return JobRequest{}, cell{}, fmt.Errorf("serve: bad job body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobRequest{}, cell{}, errors.New("serve: bad job body: data after the job object")
	}
	c, err := normalize(req)
	return req, c, err
}

// DecodeJobRequest decodes and validates one POST /v1/jobs body the way
// a replica does, returning the request and its job id.
func DecodeJobRequest(w http.ResponseWriter, body io.ReadCloser) (JobRequest, string, error) {
	req, c, err := decodeJobRequest(w, body)
	if err != nil {
		return JobRequest{}, "", err
	}
	return req, c.id(), nil
}

// admit dedups or enqueues one validated cell — the shared admission
// path of the single-job and scenario endpoints. On success the
// returned code is 200 (deduplicated onto an existing job) or 202
// (newly enqueued); on failure it is the HTTP status to write.
func (s *Server) admit(c cell) (JobStatus, int, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reg.Add("serve.rejected_draining", 1)
		return JobStatus{}, http.StatusServiceUnavailable, errors.New("serve: draining, not admitting jobs")
	}
	if j, ok := s.jobs[c.id()]; ok {
		s.mu.Unlock()
		j.addRequest()
		s.reg.Add("serve.dedup_hits", 1)
		return j.Status(), http.StatusOK, nil
	}
	j := newJob(c)
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()

	deadline := time.Now().Add(s.jobTimeout)
	if err := s.pool.Submit(func(context.Context) { s.execute(j, deadline) }); err != nil {
		// A transient admission failure must not poison the cell: drop
		// the record (a resubmit gets a fresh job) and unblock any
		// dedup waiter that raced onto it.
		s.remove(j.ID)
		j.fail(fmt.Errorf("serve: not admitted: %w", err))
		if errors.Is(err, runner.ErrQueueFull) {
			s.reg.Add("serve.rejected_full", 1)
			return JobStatus{}, http.StatusTooManyRequests, errors.New("serve: admission queue full, retry later")
		}
		s.reg.Add("serve.rejected_draining", 1)
		return JobStatus{}, http.StatusServiceUnavailable, err
	}
	return j.Status(), http.StatusAccepted, nil
}

// ScenarioResponse is the POST /v1/scenarios body: the compiled plan's
// accounting plus one job status per unique cell, in plan order.
type ScenarioResponse struct {
	Scenario   string      `json:"scenario"`
	Requested  int         `json:"requested"`
	Duplicates int         `json:"duplicates"`
	Jobs       []JobStatus `json:"jobs"`
}

// handleScenarios accepts a scenario document as the POST body,
// compiles it with the same strict compiler the CLIs use, and fans the
// plan out to content-addressed jobs through the shared admission path
// (dedup and queue limits apply per cell). Each compiled cell is
// admitted as its own job body would be, normalize(RequestFromBatch),
// the conversion the router uses, so both accept the same documents; a
// cell that does not validate refuses the document before any is
// admitted. The plan's cells must fit the admission queue; split larger
// scenarios.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	s.reg.Add("serve.scenario_requests", 1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.reg.Add("serve.bad_requests", 1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad scenario body: %w", err))
		return
	}
	plan, err := heteropim.CompileScenario(body)
	if err != nil {
		s.reg.Add("serve.bad_requests", 1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := ScenarioResponse{
		Scenario:   plan.Name,
		Requested:  plan.Requested,
		Duplicates: plan.Duplicates,
	}
	cells := make([]cell, len(plan.Cells))
	for i, bc := range plan.Cells {
		if cells[i], err = normalize(RequestFromBatch(bc)); err != nil {
			s.reg.Add("serve.bad_requests", 1)
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: scenario cell %d of %d: %w",
				i+1, len(plan.Cells), err))
			return
		}
	}
	for _, c := range cells {
		// Each fanned-out cell counts as one logical submission, so
		// dedup ratios read the same whichever endpoint carried it.
		s.reg.Add("serve.requests", 1)
		st, code, err := s.admit(c)
		if err != nil {
			if code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			writeError(w, code, fmt.Errorf("serve: scenario cell %d of %d: %w",
				len(resp.Jobs)+1, len(plan.Cells), err))
			return
		}
		resp.Jobs = append(resp.Jobs, st)
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// remove drops a job record (transient failures only: completed and
// deterministically-failed jobs stay, and keep deduplicating).
func (s *Server) remove(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// execute runs one job on a pool worker.
func (s *Server) execute(j *Job, deadline time.Time) {
	if time.Now().After(deadline) {
		// Queue-wait timeouts are transient: drop the record so a
		// resubmission is not deduplicated onto this failure.
		s.reg.Add("serve.jobs_timed_out", 1)
		s.remove(j.ID)
		j.fail(fmt.Errorf("serve: job %s spent over %s in queue", j.ID, s.jobTimeout))
		return
	}
	if s.adoptFromPeer(j) {
		return
	}
	j.setRunning()
	s.reg.Add("serve.jobs_run", 1)
	res, err := heteropim.Simulate(j.cell.BatchCell, j.metrics)
	if err != nil {
		s.reg.Add("serve.jobs_failed", 1)
		j.fail(err)
		return
	}
	j.complete(EncodeResult(res))
}

// adoptFromPeer resolves a job by cross-replica dedup: ask the fleet
// (via the injected PeerAsk) whether another replica already holds the
// finished job, and adopt its canonical bytes instead of simulating.
// Result bodies are byte-deterministic, so adopted bytes are exactly
// what a local run would have produced. Instrumented jobs never adopt:
// their purpose is the local collector side effects.
func (s *Server) adoptFromPeer(j *Job) bool {
	if s.peerAsk == nil || j.metrics != nil {
		return false
	}
	s.reg.Add("serve.peer_asks", 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	b, ok := s.peerAsk(ctx, j.ID)
	if !ok {
		return false
	}
	s.reg.Add("serve.peer_hits", 1)
	j.setRunning()
	j.complete(b)
	return true
}

// lookup resolves the {id} path value.
func (s *Server) lookup(r *http.Request) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

// handleJob is the polling endpoint: the job's status document,
// including the result once done.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleResult long-polls for the job's canonical result bytes: it
// waits up to ?wait= (default 30s) for completion, then writes exactly
// the bytes EncodeResult produced — byte-identical to a direct Run.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", r.PathValue("id")))
		return
	}
	wait := 30 * time.Second
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad wait duration %q", v))
			return
		}
		wait = d
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-j.Done():
	case <-timer.C:
		writeError(w, http.StatusRequestTimeout, fmt.Errorf("serve: job %s not done after %s", j.ID, wait))
		return
	case <-r.Context().Done():
		return
	}
	result, errText, done := j.Result()
	if !done {
		writeError(w, http.StatusInternalServerError, errors.New(errText))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(result)
}

// handleEvents streams the job's lifecycle as server-sent events: an
// initial status snapshot, every transition, and — for instrumented
// jobs — periodic progress samples from the attached collector
// ("sim.events" processed so far). The stream ends after the terminal
// event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("serve: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	events, cancel := j.subscribe()
	defer cancel()

	writeEvent := func(ev Event) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, ev.Data)
		flusher.Flush()
	}
	writeEvent(j.statusEvent())

	var ticker *time.Ticker
	var tick <-chan time.Time
	if j.metrics != nil {
		ticker = time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case ev := <-events:
			writeEvent(ev)
		case <-tick:
			writeEvent(Event{Type: "progress", Data: []byte(fmt.Sprintf(
				`{"sim_events":%g}`, j.metrics.CounterValue("sim.events")))})
		case <-j.Done():
			// Drain any queued transition, then emit the terminal state.
			for {
				select {
				case ev := <-events:
					writeEvent(ev)
					continue
				default:
				}
				break
			}
			writeEvent(Event{Type: "end", Data: j.statusEvent().Data})
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleMetrics serves the registry in Prometheus text format, folding
// in point-in-time gauges (queue depth, job states, uptime) and the
// process-wide simulation-cache counters so the cache hit ratio is
// scrapeable.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	var queued, running, done, failed int
	for _, j := range s.jobs {
		switch j.Status().Status {
		case StatusQueued:
			queued++
		case StatusRunning:
			running++
		case StatusDone:
			done++
		case StatusFailed:
			failed++
		}
	}
	s.mu.Unlock()
	s.reg.Set("serve.queue_depth", float64(s.pool.QueueDepth()))
	s.reg.Set("serve.queue_capacity", float64(s.pool.Capacity()))
	s.reg.Set("serve.workers", float64(s.pool.NumWorkers()))
	s.reg.Set("serve.jobs_queued", float64(queued))
	s.reg.Set("serve.jobs_running", float64(running))
	s.reg.Set("serve.jobs_done", float64(done))
	s.reg.Set("serve.jobs_failed_state", float64(failed))
	s.reg.Set("serve.uptime_seconds", time.Since(s.start).Seconds())
	// Runner-level pool utilization, process-wide: the runner keeps
	// only its two counters, read here at scrape time.
	s.reg.Set(runner.MetricWorkersBusy, float64(runner.BusyWorkers()))
	s.reg.Set(runner.MetricQueueDepth, float64(runner.QueuedJobs()))
	st := heteropim.SimulationCacheStats()
	s.reg.Set("simcache.hits", float64(st.Hits))
	s.reg.Set("simcache.misses", float64(st.Misses))
	s.reg.Set("simcache.disk_hits", float64(st.DiskHits))
	s.reg.Set("simcache.bytes", float64(st.Bytes))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.Snapshot().WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness: 503 once draining so load balancers
// stop routing new work here while in-flight jobs finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleStatusPage renders the human text status page (report.Table).
func (s *Server) handleStatusPage(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		statuses = append(statuses, s.jobs[id].Status())
	}
	draining := s.draining
	s.mu.Unlock()

	t := &report.Table{
		Title:   "pimserve jobs",
		Columns: []string{"Job", "Cell", "Status", "Requests", "Queue", "Run"},
	}
	for _, st := range statuses {
		t.AddRow(st.ID,
			fmt.Sprintf("%s/%s@%gx", st.Config, st.Model, st.FreqScale),
			st.Status,
			fmt.Sprintf("%d", st.Requests),
			report.Seconds(st.QueueMs/1e3),
			report.Seconds(st.RunMs/1e3))
	}
	state := "serving"
	if draining {
		state = "draining"
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%s; workers=%d queue=%d/%d; up %s",
		state, s.pool.NumWorkers(), s.pool.QueueDepth(), s.pool.Capacity(),
		time.Since(s.start).Round(time.Second)))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, t.String())
}

// Stats summarizes serving-layer traffic (the cluster check gates on
// it). JobsRun counts only jobs that executed a
// simulation locally; peer-adopted and deduplicated jobs do not.
type Stats struct {
	Requests  int64 `json:"requests"`
	DedupHits int64 `json:"dedup_hits"`
	JobsRun   int64 `json:"jobs_run"`
	Rejected  int64 `json:"rejected"`
	PeerHits  int64 `json:"peer_hits"`
}

// Stats reads the serving counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:  int64(s.reg.CounterValue("serve.requests")),
		DedupHits: int64(s.reg.CounterValue("serve.dedup_hits")),
		JobsRun:   int64(s.reg.CounterValue("serve.jobs_run")),
		Rejected: int64(s.reg.CounterValue("serve.rejected_full") +
			s.reg.CounterValue("serve.rejected_draining")),
		PeerHits: int64(s.reg.CounterValue("serve.peer_hits")),
	}
}

// Drain gracefully quiesces the server: stop admitting (readyz flips
// to 503, POST returns 503), finish every accepted job, keep results
// readable. It returns ctx.Err() if the pool cannot finish in time.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	return s.pool.Drain(ctx)
}

// Jobs snapshots every job's status in admission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].Status())
	}
	return out
}
