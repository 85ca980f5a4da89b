package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"heteropim"
	"heteropim/internal/scenario"
	"heteropim/internal/serve"
)

// The cluster check: the serving layer's one acceptance harness. It
// serves a compiled scenario twice, through real TCP listeners in one
// process. Phase 1 is a single replica; phase 2 is a fleet of replicas
// behind the consistent-hash router. Both phases fire the same three
// seeded client waves. Between the fleet's waves 1 and 2 one replica is
// drained (the SIGTERM path: rehash and retry); between waves 2 and 3
// it is killed and recovered empty (recovery and cross-replica dedup).
// The gates:
//
//   - zero client errors in either phase,
//   - every result body byte-identical to a direct BatchRun,
//   - the single replica runs exactly one simulation per distinct job
//     id, and both phases drain and shut down cleanly,
//   - cluster-wide dedup (client submissions per local simulation,
//     summed fleet-wide) at least the single replica's,
//   - the kill actually happened: >= 1 rehash, >= 1 retried
//     submission, >= 1 cross-replica adoption, and the recovered
//     replica back in the ring.

const (
	// DefaultClients is the default client total over the three waves.
	DefaultClients = 64
	// checkReplicas is the fleet size: a victim and two survivors.
	checkReplicas = 3
	// checkHealthInterval is the router's readiness-probe period: longer
	// than any check runs, so the choreography (a 503'd submission, the
	// departure, the announcement) moves the ring, never a probe racing
	// wave 2's first submission to the drained replica.
	checkHealthInterval = time.Minute
)

// CheckOptions configures RunCheck.
type CheckOptions struct {
	// Plan is the scenario served: its cells are the load mix, its
	// arrival process and seed drive every wave (nil: the default
	// 8-cell mix, serve.DefaultLoadPlan). A plan without an arrival
	// block arrives open-loop Poisson at 600 req/s: the router's rehash
	// and dedup machinery is gated under load that keeps arriving while
	// a replica dies, not a closed loop that self-throttles. Rate-driven
	// processes are resized to each wave's request count; a burst wave
	// replays the trace verbatim.
	Plan *heteropim.ScenarioPlan
	// Clients is the total client count, split over three waves
	// (<= 0: DefaultClients). Each wave covers every cell. A burst
	// arrival ignores it: its waves are as long as the trace.
	Clients int
	// Workers / Queue / JobTimeout are passed through to each replica.
	Workers    int
	Queue      int
	JobTimeout time.Duration
	// Log receives progress lines (nil: os.Stderr).
	Log io.Writer
}

// PhaseStats summarizes one phase's serving-layer traffic. Requests
// counts client submissions (the wave sizes), LiveRuns the jobs that
// executed a simulation locally — peer-adopted and deduplicated jobs
// excluded — so Dedup is directly comparable between the single-node
// and cluster phases.
type PhaseStats struct {
	Requests  int64   `json:"requests"`
	LiveRuns  int64   `json:"live_runs"`
	DedupHits int64   `json:"dedup_hits"`
	PeerHits  int64   `json:"peer_hits"`
	Dedup     float64 `json:"dedup_ratio"`
}

// CheckReport is the BENCH_cluster.json shape.
type CheckReport struct {
	Replicas      int                `json:"replicas"`
	Clients       int                `json:"clients"`
	Arrival       string             `json:"arrival"`
	Cells         []serve.JobRequest `json:"cells"`
	Single        PhaseStats         `json:"single"`
	Cluster       PhaseStats         `json:"cluster"`
	Killed        string             `json:"killed_replica"`
	Recovered     bool               `json:"recovered_in_ring"`
	Announces     float64            `json:"replica_announces"`
	Departures    float64            `json:"replica_departures"`
	Rehashes      float64            `json:"rehashes"`
	Retries       float64            `json:"retried_submissions"`
	Reroutes      float64            `json:"read_reroutes"`
	Errors        int64              `json:"errors"`
	ByteIdentical bool               `json:"byte_identical"`
	DedupOK       bool               `json:"cluster_dedup_ge_single"`
	LatencyP50Ms  float64            `json:"latency_p50_ms"`
}

// WriteJSON writes the report as indented JSON plus newline.
func (r CheckReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// replicaProc is one in-process replica behind a real TCP listener —
// the same serve.Server + http.Server pair the standalone daemon runs.
type replicaProc struct {
	name string
	url  string
	srv  *serve.Server
	hs   *http.Server
}

func startReplica(name string, fleet *Fleet, opts serve.Options) (*replicaProc, error) {
	opts.PeerAsk = PeerAsk(fleet, name, nil)
	srv := serve.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	p := &replicaProc{name: name, url: "http://" + ln.Addr().String(), srv: srv, hs: hs}
	fleet.Set(name, p.url)
	return p, nil
}

// drain is the SIGTERM-equivalent: stop admitting (readyz flips to
// 503 — the router's cue to rehash), finish in-flight jobs, keep every
// result readable.
func (p *replicaProc) drain(ctx context.Context) error { return p.srv.Drain(ctx) }

// shutdown closes the listener and leaves the fleet: the replica is
// dead, its results are gone.
func (p *replicaProc) shutdown(ctx context.Context, fleet *Fleet) error {
	fleet.Remove(p.name)
	return p.hs.Shutdown(ctx)
}

// stop drains the replica and shuts its listener down: the clean exit
// every replica still standing at the end of a phase must make.
func (p *replicaProc) stop(ctx context.Context) error {
	if err := p.drain(ctx); err != nil {
		return fmt.Errorf("clustercheck: drain %s: %w", p.name, err)
	}
	if err := p.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("clustercheck: shutdown %s: %w", p.name, err)
	}
	return nil
}

// waveOffsets builds one wave's arrival schedule: n requests through
// the configured process. Rate-driven open-loop processes are resized
// to exactly n requests, a burst replays its trace (n is its length),
// and closed-loop waves fire everything at once (all-zero offsets).
func waveOffsets(arr *scenario.Arrival, n int, seed int64) ([]float64, error) {
	if !arr.Open() {
		return make([]float64, n), nil
	}
	a := *arr
	if a.Process != scenario.ArrivalBurst {
		a.Requests = n
	}
	offsets, err := a.Schedule(seed)
	if err != nil {
		return nil, err
	}
	if len(offsets) != n {
		return nil, fmt.Errorf("clustercheck: %s arrival produced %d offsets for a %d-request wave (raise duration_sec)",
			a.Normalized(), len(offsets), n)
	}
	return offsets, nil
}

// load is one phase's client side: the wire request and ground-truth
// bytes of each cell, and the outcome of the waves fired so far.
type load struct {
	reqs     []serve.JobRequest
	expected [][]byte
	errs     int64
	mismatch atomic.Bool
	lats     []time.Duration
}

// wave fires one request per arrival offset at baseURL — request i
// targeting cell i%len(cells) — through scenario.Drive, and checks
// each body against the cell's ground truth. Requests fire on schedule
// even when earlier ones are still in flight.
func (l *load) wave(baseURL string, offsets []float64) {
	client := &http.Client{Timeout: 2 * time.Minute}
	// A connection the transport dialed but never used would hold the
	// server's Shutdown for Go's 5 s grace on new connections.
	defer client.CloseIdleConnections()
	res := scenario.Drive(offsets, func(i int) error {
		k := i % len(l.reqs)
		got, err := submitAndFetch(client, baseURL, l.reqs[k])
		if err != nil {
			fmt.Fprintf(os.Stderr, "clustercheck client %d (%s/%s): %v\n", i, l.reqs[k].Config, l.reqs[k].Model, err)
			return err
		}
		if !bytes.Equal(got, l.expected[k]) {
			l.mismatch.Store(true)
		}
		return nil
	})
	l.errs += int64(res.Errors)
	l.lats = append(l.lats, res.Latencies...)
}

// submitAndFetch POSTs one job and long-polls its result bytes — one
// whole client interaction.
func submitAndFetch(client *http.Client, baseURL string, req serve.JobRequest) ([]byte, error) {
	body, _ := json.Marshal(req)
	var id string
	// A 429 is the admission controller doing its job; honor the
	// Retry-After budget a few times before giving up.
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 50 {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, data)
		}
		var st serve.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, err
		}
		id = st.ID
		break
	}
	resp, err := client.Get(baseURL + "/v1/jobs/" + id + "/result?wait=90s")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET result: %s: %s", resp.Status, data)
	}
	return data, nil
}

// phaseStats folds servers' serving counters into one PhaseStats over
// `requests` client submissions.
func phaseStats(requests int, servers ...*serve.Server) PhaseStats {
	ps := PhaseStats{Requests: int64(requests)}
	for _, s := range servers {
		st := s.Stats()
		ps.LiveRuns += st.JobsRun
		ps.DedupHits += st.DedupHits
		ps.PeerHits += st.PeerHits
	}
	if ps.LiveRuns > 0 {
		ps.Dedup = float64(requests) / float64(ps.LiveRuns)
	}
	return ps
}

// RunCheck serves the plan on one replica and then on the fleet, and
// returns the report plus the first gate violation (the report is
// valid — and worth writing — either way).
func RunCheck(opts CheckOptions) (CheckReport, error) {
	plan := opts.Plan
	if plan == nil {
		var err error
		if plan, err = serve.DefaultLoadPlan(); err != nil {
			return CheckReport{}, err
		}
	}
	clients := opts.Clients
	if clients <= 0 {
		clients = DefaultClients
	}
	logw := opts.Log
	if logw == nil {
		logw = os.Stderr
	}
	arr := plan.Arrival
	if arr == nil {
		arr = &scenario.Arrival{Process: scenario.ArrivalPoisson, RatePerSec: 600}
	}
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	rep := CheckReport{Replicas: checkReplicas, Arrival: arr.Normalized()}
	cells := len(plan.Cells)
	if cells == 0 {
		return rep, fmt.Errorf("clustercheck: scenario %q compiled to no cells", plan.Name)
	}

	// The wire request of each cell, and the distinct job ids among
	// them: the single replica must run one simulation per id.
	rep.Cells = make([]serve.JobRequest, cells)
	ids := map[string]bool{}
	for i, bc := range plan.Cells {
		rep.Cells[i] = serve.RequestFromBatch(bc)
		id, err := serve.JobID(rep.Cells[i])
		if err != nil {
			return rep, fmt.Errorf("clustercheck: scenario cell %d: %w", i, err)
		}
		ids[id] = true
	}
	// Ground truth straight from the public batch API, which is
	// bit-identical to Simulate per cell — what `pimserve -print` emits.
	results, err := heteropim.BatchRun(plan.Cells)
	if err != nil {
		return rep, err
	}
	expected := make([][]byte, cells)
	for i, r := range results {
		expected[i] = serve.EncodeResult(r)
	}
	// The replicas share this process's result cache: evict the truth,
	// or the served jobs would be hits on the very bytes they are
	// checked against.
	heteropim.DropSimulationCacheMemory()

	// Three waves, each covering every cell, seeded apart so they differ
	// while the whole check replays from (arrival, seed). Both phases
	// fire the same three, so their dedup ratios compare like for like.
	wave := max((clients+2)/3, cells)
	if arr.Normalized() == scenario.ArrivalBurst {
		if wave = len(arr.TraceSec); wave < cells {
			return rep, fmt.Errorf("clustercheck: a %d-offset burst trace cannot cover %d cells per wave", wave, cells)
		}
	}
	var waves [3][]float64
	for w := range waves {
		if waves[w], err = waveOffsets(arr, wave, seed+int64(w)+1); err != nil {
			return rep, err
		}
	}
	rep.Clients = 3 * wave

	sopts := serve.Options{Workers: opts.Workers, QueueCapacity: opts.Queue, JobTimeout: opts.JobTimeout}
	dctx, dcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer dcancel()

	// ---- Phase 1: one replica, no peers.
	single, err := startReplica("single", NewFleet(), sopts)
	if err != nil {
		return rep, err
	}
	fmt.Fprintf(logw, "pimserve: clustercheck %q, 1 node: 3 waves x %d requests (%s arrivals), %d cells, %d distinct jobs\n",
		plan.Name, wave, arr.Normalized(), cells, len(ids))
	base := &load{reqs: rep.Cells, expected: expected}
	for _, offsets := range waves {
		base.wave(single.url, offsets)
	}
	rep.Single = phaseStats(rep.Clients, single.srv)
	if err := single.stop(dctx); err != nil {
		return rep, err
	}
	if base.errs > 0 || base.mismatch.Load() {
		return rep, fmt.Errorf("clustercheck: single-node phase failed (%d errors, identical=%t)", base.errs, !base.mismatch.Load())
	}
	if rep.Single.LiveRuns != int64(len(ids)) {
		return rep, fmt.Errorf("clustercheck: single node ran %d simulations for %d distinct jobs", rep.Single.LiveRuns, len(ids))
	}

	// Phase 1 warmed the process-wide memory cache; drop it so the
	// fleet re-earns every result through its own dedup machinery (and
	// the shared L2 disk tier when HETEROPIM_CACHE_DIR is set), the way
	// separate replica processes would.
	heteropim.DropSimulationCacheMemory()

	// ---- Phase 2: the fleet.
	fleet := NewFleet()
	replicas := make([]*replicaProc, checkReplicas)
	members := make([]Replica, checkReplicas)
	for i := range replicas {
		if replicas[i], err = startReplica(fmt.Sprintf("replica-%d", i), fleet, sopts); err != nil {
			return rep, err
		}
		members[i] = Replica{Name: replicas[i].name, BaseURL: replicas[i].url}
	}
	router := NewRouter(RouterOptions{Replicas: members, HealthInterval: checkHealthInterval})
	defer router.Close()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rep, err
	}
	rhs := &http.Server{Handler: router.Handler()}
	go func() { _ = rhs.Serve(rln) }()
	routerURL := "http://" + rln.Addr().String()
	defer rhs.Shutdown(context.Background())

	fmt.Fprintf(logw, "pimserve: clustercheck %q, %d replicas behind %s: the same 3 waves\n",
		plan.Name, checkReplicas, routerURL)

	routed := &load{reqs: rep.Cells, expected: expected}
	routed.wave(routerURL, waves[0])

	// Kill: pick the replica owning the most job ids and drain it — the
	// SIGTERM path. Its readyz flips to 503 immediately, so wave 2's
	// first submissions to it are rejected, rehashed and retried by the
	// router while the drained replica's results stay readable for
	// cross-replica adoption.
	owned := map[string]int{}
	for id := range ids {
		if o, ok := router.Owner(id); ok {
			owned[o]++
		}
	}
	victim := replicas[0]
	for _, p := range replicas {
		if owned[p.name] > owned[victim.name] {
			victim = p
		}
	}
	rep.Killed = victim.name
	fmt.Fprintf(logw, "pimserve: clustercheck: draining %s (owns %d/%d job ids)\n",
		victim.name, owned[victim.name], len(ids))
	// The drain is deliberately silent — no departure announcement — so
	// wave 2 exercises the lost-announcement path: the router discovers
	// the drain from a 503'd submission and retries it on the new owner.
	if err := victim.drain(dctx); err != nil {
		return rep, fmt.Errorf("clustercheck: victim drain: %w", err)
	}

	routed.wave(routerURL, waves[1])

	// Full kill, then recovery under the same name (same shard range)
	// on a fresh port with empty state. This time the victim announces
	// its departure over the wire first — the same DELETE
	// /v1/replicas/{name} a SIGTERM'd `pimserve -announce` sends — and
	// the recovered replica rejoins by announcing itself with the same
	// POST /v1/replicas, not by the harness reaching into the router, so
	// the check covers graceful exit and self-registration end to end.
	if err := Depart(nil, routerURL, victim.name); err != nil {
		return rep, fmt.Errorf("clustercheck: victim depart: %w", err)
	}
	if err := victim.shutdown(dctx, fleet); err != nil {
		return rep, fmt.Errorf("clustercheck: victim shutdown: %w", err)
	}
	router.RemoveReplica(victim.name)
	recovered, err := startReplica(victim.name, fleet, sopts)
	if err != nil {
		return rep, err
	}
	if err := Announce(nil, routerURL, Replica{Name: recovered.name, BaseURL: recovered.url}); err != nil {
		return rep, fmt.Errorf("clustercheck: recovery announce: %w", err)
	}
	fmt.Fprintf(logw, "pimserve: clustercheck: recovered %s at %s (self-announced)\n", recovered.name, recovered.url)

	routed.wave(routerURL, waves[2])

	// Collect before stopping the fleet (counters survive drain anyway).
	servers := []*serve.Server{victim.srv, recovered.srv}
	standing := []*replicaProc{recovered}
	for _, p := range replicas {
		if p != victim {
			servers = append(servers, p.srv)
			standing = append(standing, p)
		}
	}
	rep.Cluster = phaseStats(rep.Clients, servers...)
	rep.Errors = routed.errs
	rep.ByteIdentical = !routed.mismatch.Load()
	reg := router.Registry()
	rep.Announces = reg.CounterValue("cluster.announces")
	rep.Departures = reg.CounterValue("cluster.departures")
	rep.Rehashes = reg.CounterValue("cluster.rehashes")
	rep.Retries = reg.CounterValue("cluster.retries")
	rep.Reroutes = reg.CounterValue("cluster.reroutes")
	rep.DedupOK = rep.Cluster.Dedup >= rep.Single.Dedup-1e-9
	for _, n := range router.ReadyReplicas() {
		if n == victim.name {
			rep.Recovered = true
		}
	}
	if n := len(routed.lats); n > 0 {
		sort.Slice(routed.lats, func(i, j int) bool { return routed.lats[i] < routed.lats[j] })
		rep.LatencyP50Ms = float64(routed.lats[(n-1)/2]) / float64(time.Millisecond)
	}

	for _, p := range standing {
		if err := p.stop(dctx); err != nil {
			return rep, err
		}
	}

	// ---- Gates.
	switch {
	case rep.Errors > 0:
		return rep, fmt.Errorf("clustercheck: %d client errors", rep.Errors)
	case !rep.ByteIdentical:
		return rep, fmt.Errorf("clustercheck: routed results not byte-identical to direct runs")
	case !rep.DedupOK:
		return rep, fmt.Errorf("clustercheck: cluster dedup %.2fx below single-node %.2fx",
			rep.Cluster.Dedup, rep.Single.Dedup)
	case rep.Rehashes < 1:
		return rep, fmt.Errorf("clustercheck: the kill never caused a rehash")
	case rep.Retries < 1:
		return rep, fmt.Errorf("clustercheck: no in-flight submission was retried across the kill")
	case rep.Cluster.PeerHits < 1:
		return rep, fmt.Errorf("clustercheck: no cross-replica dedup adoption happened")
	case rep.Announces < 1:
		return rep, fmt.Errorf("clustercheck: recovery never went through POST /v1/replicas")
	case rep.Departures < 1:
		return rep, fmt.Errorf("clustercheck: the drain never went through DELETE /v1/replicas/{name}")
	case !rep.Recovered:
		return rep, fmt.Errorf("clustercheck: %s never rejoined the ring", victim.name)
	}
	return rep, nil
}
