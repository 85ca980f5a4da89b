package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"heteropim"
	"heteropim/internal/metrics"
	"heteropim/internal/report"
	"heteropim/internal/serve"
)

// Replica names one pimserve backend.
type Replica struct {
	Name    string `json:"name"`
	BaseURL string `json:"base_url"`
}

// RouterOptions configures a Router.
type RouterOptions struct {
	// Replicas is the initial fleet (all assumed ready until a health
	// probe or a forward failure says otherwise).
	Replicas []Replica
	// Vnodes is the ring's points-per-replica (<= 0: 64).
	Vnodes int
	// HealthInterval is the readiness-probe period (<= 0: 500ms). A
	// replica whose /readyz stops returning 200 — a SIGTERM'd replica
	// flips it to 503 the moment it starts draining — is marked
	// unready and its shard range is re-hashed to the survivors; when
	// it comes back, its range comes back with it.
	HealthInterval time.Duration
	// Client issues the proxied requests (nil: 2-minute timeout).
	Client *http.Client
}

// replicaState is one fleet member as the router sees it.
type replicaState struct {
	name    string
	baseURL string
	ready   bool
}

// Router is the pimserve fleet front door: it owns no simulation state
// at all, only the ring. Jobs are routed to the replica owning their
// content-addressed id, so every duplicate of a cell lands on the same
// replica and deduplicates there; reads follow the same route, with a
// fan-out fallback for jobs stranded on a previous owner by a rehash.
type Router struct {
	ring     *Ring
	reg      *metrics.Registry
	client   *http.Client
	probe    *http.Client
	mux      *http.ServeMux
	interval time.Duration
	start    time.Time

	mu       sync.Mutex
	replicas map[string]*replicaState

	stop     chan struct{}
	stopOnce sync.Once
}

// NewRouter builds a router over the given fleet and starts its health
// loop.
func NewRouter(opts RouterOptions) *Router {
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Minute}
	}
	interval := opts.HealthInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	rt := &Router{
		ring:     NewRing(opts.Vnodes),
		reg:      metrics.NewRegistry(),
		client:   client,
		probe:    &http.Client{Timeout: 2 * time.Second},
		mux:      http.NewServeMux(),
		interval: interval,
		start:    time.Now(),
		replicas: map[string]*replicaState{},
		stop:     make(chan struct{}),
	}
	for _, r := range opts.Replicas {
		rt.AddReplica(r)
	}
	rt.mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	rt.mux.HandleFunc("POST /v1/scenarios", rt.handleScenarios)
	rt.mux.HandleFunc("POST /v1/replicas", rt.handleReplicaAnnounce)
	rt.mux.HandleFunc("GET /v1/replicas", rt.handleReplicaList)
	rt.mux.HandleFunc("DELETE /v1/replicas/{name}", rt.handleReplicaDepart)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJobGet)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/{rest...}", rt.handleJobGet)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /{$}", rt.handleStatusPage)
	go rt.healthLoop()
	return rt
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Registry exposes the router's metrics registry (heteropim_cluster_*
// once rendered to Prometheus text).
func (rt *Router) Registry() *metrics.Registry { return rt.reg }

// Close stops the health loop. In-flight proxied requests finish.
func (rt *Router) Close() { rt.stopOnce.Do(func() { close(rt.stop) }) }

// AddReplica registers (or re-registers) a fleet member, optimistically
// ready so traffic can flow before the first probe; a failing forward
// or probe demotes it. Recovering a replica under its old name on a
// new address restores exactly its old shard range.
func (rt *Router) AddReplica(r Replica) {
	rt.mu.Lock()
	rt.replicas[r.Name] = &replicaState{name: r.Name, baseURL: r.BaseURL, ready: true}
	rt.mu.Unlock()
	rt.ring.Add(r.Name)
	rt.reg.Set("cluster.replica_ready."+r.Name, 0, 1)
}

// RemoveReplica unregisters a fleet member entirely (scale-down, as
// opposed to the unready state a draining replica enters).
func (rt *Router) RemoveReplica(name string) {
	rt.mu.Lock()
	delete(rt.replicas, name)
	rt.mu.Unlock()
	rt.ring.Remove(name)
	rt.reg.Set("cluster.replica_ready."+name, 0, 0)
}

// ReadyReplicas lists the members currently in the ring.
func (rt *Router) ReadyReplicas() []string { return rt.ring.Nodes() }

// Owner reports which replica currently owns a job id (false when the
// ring is empty) — the clustercheck uses it to pick a victim that
// actually owns live shard ranges.
func (rt *Router) Owner(jobID string) (string, bool) { return rt.ring.Owner(jobID) }

// lookup resolves a replica name to its state.
func (rt *Router) lookup(name string) (replicaState, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	s, ok := rt.replicas[name]
	if !ok {
		return replicaState{}, false
	}
	return *s, true
}

// markUnready pulls a replica's shard range out of the ring (it stays
// a fleet member; the health loop re-adds it when /readyz recovers).
func (rt *Router) markUnready(name, why string) {
	rt.mu.Lock()
	s, ok := rt.replicas[name]
	changed := ok && s.ready
	if changed {
		s.ready = false
	}
	rt.mu.Unlock()
	if changed {
		rt.ring.Remove(name)
		rt.reg.Add("cluster.rehashes", 1)
		rt.reg.Add("cluster.unready."+why, 1)
		rt.reg.Set("cluster.replica_ready."+name, 0, 0)
	}
}

// markReady restores a replica's shard range.
func (rt *Router) markReady(name string) {
	rt.mu.Lock()
	s, ok := rt.replicas[name]
	changed := ok && !s.ready
	if changed {
		s.ready = true
	}
	rt.mu.Unlock()
	if changed {
		rt.ring.Add(name)
		rt.reg.Add("cluster.recoveries", 1)
		rt.reg.Set("cluster.replica_ready."+name, 0, 1)
	}
}

// healthLoop probes every member's /readyz each interval and keeps the
// ring in sync: a draining or dead replica leaves the ring (rehash), a
// recovered one rejoins it.
func (rt *Router) healthLoop() {
	t := time.NewTicker(rt.interval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
		rt.mu.Lock()
		members := make([]replicaState, 0, len(rt.replicas))
		for _, s := range rt.replicas {
			members = append(members, *s)
		}
		rt.mu.Unlock()
		for _, m := range members {
			resp, err := rt.probe.Get(m.baseURL + "/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if err != nil || resp.StatusCode != http.StatusOK {
				rt.markUnready(m.name, "probe")
			} else {
				rt.markReady(m.name)
			}
		}
	}
}

// badRequest counts and answers a request the router refuses (400).
func (rt *Router) badRequest(w http.ResponseWriter, err error) {
	rt.reg.Add("cluster.bad_requests", 1)
	rt.writeError(w, http.StatusBadRequest, err)
}

// writeError mirrors the replicas' JSON error shape.
func (rt *Router) writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
}

// flushWriter flushes after every write so proxied SSE streams stay
// live end to end.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

// relay copies a backend response to the client, streaming (SSE) when
// the backend streams.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", "Cache-Control"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	out := io.Writer(w)
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		f, _ := w.(http.Flusher)
		out = flushWriter{w: w, f: f}
	}
	io.Copy(out, resp.Body)
}

// handleSubmit routes one job submission to the shard owner of its
// content-addressed id (forwardJob) and relays the owner's answer.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rt.reg.Add("cluster.requests", 1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		rt.badRequest(w, fmt.Errorf("cluster: read body: %w", err))
		return
	}
	// The replicas' own decoder: a body the router forwards is one a
	// replica accepts, and one it rejects never costs a hop.
	_, id, err := serve.DecodeJobRequest(w, io.NopCloser(bytes.NewReader(body)))
	if err != nil {
		rt.badRequest(w, err)
		return
	}
	resp, err := rt.forwardJob(r.Context(), id, body)
	if err != nil {
		rt.writeForwardError(w, err)
		return
	}
	rt.relay(w, resp)
}

// handleScenarios is the cluster's POST /v1/scenarios: it compiles the
// document with the replicas' compiler, sends each unique cell as its
// own POST /v1/jobs body to that cell's owner (forwardJob), and replies
// in the replicas' shape, so a scenario reaches the same jobs whether a
// client posts it to a replica or to the router. A cell that does not
// validate as a job body refuses the document before any cell is sent,
// as on a replica (the compiler already refuses the cell sets a job
// body cannot carry, such as a variant with a batch size). A replica's
// refusal of a cell is relayed as is; the cells before it stay
// admitted, as they do on a replica.
func (rt *Router) handleScenarios(w http.ResponseWriter, r *http.Request) {
	rt.reg.Add("cluster.requests", 1)
	doc, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		rt.badRequest(w, fmt.Errorf("cluster: bad scenario body: %w", err))
		return
	}
	plan, err := heteropim.CompileScenario(doc)
	if err != nil {
		rt.badRequest(w, err)
		return
	}
	ids := make([]string, len(plan.Cells))
	bodies := make([][]byte, len(plan.Cells))
	for i, bc := range plan.Cells {
		req := serve.RequestFromBatch(bc)
		if ids[i], err = serve.JobID(req); err != nil {
			rt.badRequest(w, fmt.Errorf("cluster: scenario cell %d of %d: %w", i+1, len(plan.Cells), err))
			return
		}
		// A JobRequest holds plain values and the compiler admits only
		// finite frequencies, so it always encodes.
		bodies[i], _ = json.Marshal(req)
	}
	out := serve.ScenarioResponse{Scenario: plan.Name, Requested: plan.Requested, Duplicates: plan.Duplicates}
	for i, id := range ids {
		resp, err := rt.forwardJob(r.Context(), id, bodies[i])
		if err != nil {
			rt.writeForwardError(w, err)
			return
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			rt.relay(w, resp)
			return
		}
		var st serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			rt.writeError(w, http.StatusBadGateway, fmt.Errorf("cluster: job %s: %w", id, err))
			return
		}
		out.Jobs = append(out.Jobs, st)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(out)
}

// errNoReplica is forwardJob's answer once the ring is empty.
var errNoReplica = errors.New("cluster: no ready replica")

// forwardJob POSTs one job body to the replica owning id, re-hashing
// and retrying when the owner is draining (503) or unreachable — the
// autoscale-friendly path: a SIGTERM'd replica stops being an owner
// after its first rejection, and the in-flight submission lands on the
// range's new owner instead of failing back to the client. It returns
// the first other answer, which the caller must close.
func (rt *Router) forwardJob(ctx context.Context, id string, body []byte) (*http.Response, error) {
	// One attempt per fleet member is enough: every retry removes the
	// failed owner from the ring first.
	attempts := rt.ring.Len() + 1
	for attempt := 0; attempt < attempts; attempt++ {
		owner, ok := rt.ring.Owner(id)
		if !ok {
			break
		}
		rep, ok := rt.lookup(owner)
		if !ok {
			rt.ring.Remove(owner)
			continue
		}
		preq, err := http.NewRequestWithContext(ctx, http.MethodPost,
			rep.baseURL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		preq.Header.Set("Content-Type", "application/json")
		resp, err := rt.client.Do(preq)
		if err != nil {
			rt.markUnready(owner, "unreachable")
			rt.reg.Add("cluster.retries", 1)
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// The owner is draining: rehash its range and retry the
			// in-flight submission on the new owner.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rt.markUnready(owner, "draining")
			rt.reg.Add("cluster.retries", 1)
			continue
		}
		rt.reg.Add("cluster.forwarded."+owner, 1)
		return resp, nil
	}
	rt.reg.Add("cluster.unroutable", 1)
	return nil, errNoReplica
}

// writeForwardError answers a forwardJob failure: 503 when no replica
// is left, 500 when the request could not be built.
func (rt *Router) writeForwardError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if errors.Is(err, errNoReplica) {
		code = http.StatusServiceUnavailable
	}
	rt.writeError(w, code, err)
}

// handleJobGet routes job reads by id. The owner is asked first; a 404
// or an unreachable owner falls back to a fan-out over the rest of the
// fleet, because a rehash (or a recovery) may have moved the id's
// range after the job was placed.
func (rt *Router) handleJobGet(w http.ResponseWriter, r *http.Request) {
	rt.reg.Add("cluster.requests", 1)
	id := r.PathValue("id")
	ordered := make([]string, 0, rt.ring.Len())
	if owner, ok := rt.ring.Owner(id); ok {
		ordered = append(ordered, owner)
	}
	for _, n := range rt.ring.Nodes() {
		if len(ordered) == 0 || n != ordered[0] {
			ordered = append(ordered, n)
		}
	}
	for i, name := range ordered {
		rep, ok := rt.lookup(name)
		if !ok {
			continue
		}
		url := rep.baseURL + r.URL.Path
		if r.URL.RawQuery != "" {
			url += "?" + r.URL.RawQuery
		}
		preq, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
		if err != nil {
			rt.writeError(w, http.StatusInternalServerError, err)
			return
		}
		resp, err := rt.client.Do(preq)
		if err != nil {
			rt.markUnready(name, "unreachable")
			continue
		}
		if resp.StatusCode == http.StatusNotFound && i+1 < len(ordered) {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		if i > 0 {
			rt.reg.Add("cluster.reroutes", 1)
		}
		rt.reg.Add("cluster.forwarded."+name, 1)
		rt.relay(w, resp)
		return
	}
	rt.reg.Add("cluster.unroutable", 1)
	rt.writeError(w, http.StatusNotFound, fmt.Errorf("cluster: no replica holds job %q", id))
}

// handleReplicaAnnounce lets a replica register itself: `pimserve
// -announce <router>` POSTs {"name","base_url"} here on startup, so a
// recovered or scaled-up replica joins the ring without the router
// being restarted with a new -backends list. Re-announcing an existing
// name (recovery on a fresh port) restores exactly its old shard range.
func (rt *Router) handleReplicaAnnounce(w http.ResponseWriter, r *http.Request) {
	rt.reg.Add("cluster.requests", 1)
	rep, err := decodeReplica(w, r.Body)
	if err != nil {
		rt.badRequest(w, err)
		return
	}
	rt.AddReplica(rep)
	rt.reg.Add("cluster.announces", 1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(struct {
		Replica Replica `json:"replica"`
		Ring    int     `json:"ring"`
	}{Replica: rep, Ring: rt.ring.Len()})
}

// decodeReplica reads one POST /v1/replicas body — at most 64 KiB, one
// JSON object with no unknown fields and nothing after it — naming a
// replica whose base URL passes CheckBaseURL.
func decodeReplica(w http.ResponseWriter, body io.ReadCloser) (Replica, error) {
	var rep Replica
	dec := json.NewDecoder(http.MaxBytesReader(w, body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return Replica{}, fmt.Errorf("cluster: bad replica body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Replica{}, errors.New("cluster: bad replica body: data after the replica object")
	}
	if rep.Name == "" {
		return Replica{}, errors.New("cluster: replica needs a name")
	}
	return rep, CheckBaseURL(rep.BaseURL)
}

// CheckBaseURL accepts a replica base URL only if it parses, its scheme
// is http or https, and it names a host. A replica announced over POST
// /v1/replicas and one listed in `pimserve -backends` pass the same
// check.
func CheckBaseURL(raw string) error {
	u, err := url.Parse(raw)
	if err != nil {
		return fmt.Errorf("cluster: replica base_url %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("cluster: replica base_url %q is not an http(s) URL with a host", raw)
	}
	return nil
}

// handleReplicaDepart is the graceful-drain announcement: a SIGTERM'd
// replica DELETEs itself here before serving out its drain window, so
// the router rehashes its shard range immediately instead of waiting
// for the next health probe (or a 503'd submission) to notice. The
// replica stays a fleet member — if it comes back up and re-announces
// (or its /readyz recovers), its old range is restored.
func (rt *Router) handleReplicaDepart(w http.ResponseWriter, r *http.Request) {
	rt.reg.Add("cluster.requests", 1)
	name := r.PathValue("name")
	if _, ok := rt.lookup(name); !ok {
		rt.reg.Add("cluster.bad_requests", 1)
		rt.writeError(w, http.StatusNotFound, fmt.Errorf("cluster: unknown replica %q", name))
		return
	}
	rt.markUnready(name, "depart")
	rt.reg.Add("cluster.departures", 1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(struct {
		Replica string `json:"replica"`
		Ring    int    `json:"ring"`
	}{Replica: name, Ring: rt.ring.Len()})
}

// ReplicaStatus is one GET /v1/replicas entry.
type ReplicaStatus struct {
	Name    string `json:"name"`
	BaseURL string `json:"base_url"`
	Ready   bool   `json:"ready"`
}

// handleReplicaList reports the fleet as the router sees it, sorted by
// name.
func (rt *Router) handleReplicaList(w http.ResponseWriter, r *http.Request) {
	rt.reg.Add("cluster.requests", 1)
	rt.mu.Lock()
	out := make([]ReplicaStatus, 0, len(rt.replicas))
	for _, s := range rt.replicas {
		out = append(out, ReplicaStatus{Name: s.name, BaseURL: s.baseURL, Ready: s.ready})
	}
	rt.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// Announce registers a replica with a router over the wire — one POST
// to /v1/replicas. The caller owns the retry budget (startup
// announcement races the router's own listener coming up).
func Announce(client *http.Client, routerURL string, rep Replica) error {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	body, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	resp, err := client.Post(routerURL+"/v1/replicas", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: announce to %s: %s: %s", routerURL, resp.Status, strings.TrimSpace(string(data)))
	}
	return nil
}

// Depart announces a graceful drain to a router over the wire — one
// DELETE to /v1/replicas/{name}. Best-effort by design: a dead router
// just means the drain is discovered by probe instead.
func Depart(client *http.Client, routerURL, name string) error {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	req, err := http.NewRequest(http.MethodDelete, routerURL+"/v1/replicas/"+name, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: depart from %s: %s: %s", routerURL, resp.Status, strings.TrimSpace(string(data)))
	}
	return nil
}

// handleMetrics serves the router's own registry (the cluster.* series
// become heteropim_cluster_* in the exposition) — per-replica forward
// counters and readiness gauges, rehash/retry/reroute counters, fleet
// size and uptime.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	total, ready := len(rt.replicas), 0
	for _, s := range rt.replicas {
		if s.ready {
			ready++
		}
	}
	rt.mu.Unlock()
	rt.reg.Set("cluster.replicas", 0, float64(total))
	rt.reg.Set("cluster.replicas_ready", 0, float64(ready))
	rt.reg.Set("cluster.uptime_seconds", 0, time.Since(rt.start).Seconds())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.reg.Snapshot().WritePrometheus(w)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports router readiness: at least one replica in the
// ring.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if rt.ring.Len() == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no ready replicas")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleStatusPage renders the fleet as a text table.
func (rt *Router) handleStatusPage(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	members := make([]replicaState, 0, len(rt.replicas))
	for _, s := range rt.replicas {
		members = append(members, *s)
	}
	rt.mu.Unlock()
	sort.Slice(members, func(i, j int) bool { return members[i].name < members[j].name })

	t := &report.Table{
		Title:   "pimserve cluster",
		Columns: []string{"Replica", "Address", "Ready", "Forwarded"},
	}
	for _, m := range members {
		t.AddRow(m.name, m.baseURL,
			fmt.Sprintf("%t", m.ready),
			fmt.Sprintf("%.0f", rt.reg.CounterValue("cluster.forwarded."+m.name)))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"ring=%d rehashes=%.0f retries=%.0f reroutes=%.0f; up %s",
		rt.ring.Len(),
		rt.reg.CounterValue("cluster.rehashes"),
		rt.reg.CounterValue("cluster.retries"),
		rt.reg.CounterValue("cluster.reroutes"),
		time.Since(rt.start).Round(time.Second)))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, t.String())
}
