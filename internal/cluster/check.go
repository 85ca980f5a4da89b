package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"heteropim"
	"heteropim/internal/scenario"
	"heteropim/internal/serve"
)

// The clustercheck: the serving fleet's acceptance harness. It builds
// a real cluster in one process — N replicas on real TCP listeners, a
// consistent-hash router in front — drives three client waves through
// the router, SIGTERM-equivalently drains one replica between waves 1
// and 2 (exercising the rehash-and-retry path), fully kills and then
// recovers it between waves 2 and 3 (exercising recovery and
// cross-replica dedup from an empty replica), and gates on:
//
//   - zero client errors across every wave,
//   - every result body byte-identical to a direct single-process run,
//   - cluster-wide dedup (client submissions per local simulation,
//     summed fleet-wide) at least the single-node baseline's,
//   - the kill actually happened: >= 1 rehash, >= 1 retried
//     submission, >= 1 cross-replica adoption, and the recovered
//     replica back in the ring.

// CheckOptions configures RunCheck.
type CheckOptions struct {
	// Replicas is the fleet size (<= 0: 3; the gate requires >= 3).
	Replicas int
	// Clients is the total client count, split over three waves
	// (<= 0: 96). Each wave covers every cell.
	Clients int
	// Window is the replicas' admission-coalescing window (<= 0: 2ms).
	Window time.Duration
	// Cells overrides the load mix (nil: serve.DefaultLoadCells()).
	Cells []serve.LoadCell
	// Arrival is the per-wave arrival process (nil: open-loop Poisson
	// at 600 req/s — the router's rehash and dedup machinery is gated
	// under load that keeps arriving while a replica dies, not a
	// closed loop that self-throttles). Rate-driven processes are
	// resized to each wave's request count; a burst trace must have
	// exactly one offset per wave request.
	Arrival *scenario.Arrival
	// Seed drives the arrival schedules (0: 1). Each wave offsets the
	// seed so the waves differ but the whole check replays identically.
	Seed int64
	// Workers / Queue / JobTimeout are passed through to each replica.
	Workers    int
	Queue      int
	JobTimeout time.Duration
	// HealthInterval is the router's probe period (<= 0: 100ms).
	HealthInterval time.Duration
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
	Batches   int64   `json:"coalesce_batches"`
	Dedup     float64 `json:"dedup_ratio"`
}

// CheckReport is the BENCH_cluster.json shape.
type CheckReport struct {
	Replicas      int              `json:"replicas"`
	Clients       int              `json:"clients"`
	Arrival       string           `json:"arrival"`
	Cells         []serve.LoadCell `json:"cells"`
	Single        PhaseStats       `json:"single"`
	Cluster       PhaseStats       `json:"cluster"`
	Killed        string           `json:"killed_replica"`
	Recovered     bool             `json:"recovered_in_ring"`
	Announces     float64          `json:"replica_announces"`
	Departures    float64          `json:"replica_departures"`
	Rehashes      float64          `json:"rehashes"`
	Retries       float64          `json:"retried_submissions"`
	Reroutes      float64          `json:"read_reroutes"`
	Errors        int64            `json:"errors"`
	ByteIdentical bool             `json:"byte_identical"`
	DedupOK       bool             `json:"cluster_dedup_ge_single"`
	WallSeconds   float64          `json:"wall_seconds"`
	ThroughputRPS float64          `json:"throughput_rps"`
	LatencyP50Ms  float64          `json:"latency_p50_ms"`
	LatencyP99Ms  float64          `json:"latency_p99_ms"`
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

// waveOffsets builds one wave's arrival schedule: n requests through
// the configured process. Rate-driven open-loop processes are resized
// to exactly n requests; closed-loop waves fire everything at once
// (all-zero offsets) — the pre-scenario behavior.
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
		return nil, fmt.Errorf("clustercheck: %s arrival produced %d offsets for a %d-request wave (raise duration_sec or fix the trace length)",
			a.Normalized(), len(offsets), n)
	}
	return offsets, nil
}

// runWave fires one request per arrival offset at baseURL — request i
// targeting cells[i%len(cells)] — through the shared open-loop driver,
// and verifies each body against expected. Requests fire on schedule
// even when earlier ones are still in flight.
func runWave(baseURL string, offsets []float64, cells []serve.LoadCell, expected [][]byte) (errs int64, identical bool, lats []float64) {
	client := &http.Client{Timeout: 2 * time.Minute}
	identical = true
	var mu sync.Mutex
	res := scenario.Drive(offsets, func(i int) error {
		cell := cells[i%len(cells)]
		got, err := serve.SubmitAndFetch(client, baseURL, cell)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clustercheck client %d (%s/%s): %v\n", i, cell.Config, cell.Model, err)
			return err
		}
		if !sameBytes(got, expected[i%len(cells)]) {
			mu.Lock()
			identical = false
			mu.Unlock()
		}
		return nil
	})
	lats = make([]float64, 0, len(res.Latencies))
	for _, d := range res.Latencies {
		lats = append(lats, d.Seconds())
	}
	return int64(res.Errors), identical, lats
}

func sameBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func percentileMs(lats []float64, p float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]float64(nil), lats...)
	sort.Float64s(sorted)
	return sorted[int(p*float64(len(sorted)-1))] * 1e3
}

// sumStats folds the fleet's serving counters into one PhaseStats
// (Requests is filled by the caller from the client side).
func sumStats(servers []*serve.Server) PhaseStats {
	var ps PhaseStats
	for _, s := range servers {
		st := s.Stats()
		ps.LiveRuns += st.JobsRun
		ps.DedupHits += st.DedupHits
		ps.PeerHits += st.PeerHits
		ps.Batches += st.CoalesceBatches
	}
	return ps
}

// RunCheck builds the cluster, drives the kill-and-recover load, and
// returns the report plus the first gate violation (the report is
// valid — and worth writing — either way).
func RunCheck(opts CheckOptions) (CheckReport, error) {
	nrep := opts.Replicas
	if nrep <= 0 {
		nrep = 3
	}
	clients := opts.Clients
	if clients <= 0 {
		clients = 96
	}
	window := opts.Window
	if window <= 0 {
		window = 2 * time.Millisecond
	}
	cells := opts.Cells
	if cells == nil {
		cells = serve.DefaultLoadCells()
	}
	health := opts.HealthInterval
	if health <= 0 {
		health = 100 * time.Millisecond
	}
	logw := opts.Log
	if logw == nil {
		logw = os.Stderr
	}
	arr := opts.Arrival
	if arr == nil {
		arr = &scenario.Arrival{Process: scenario.ArrivalPoisson, RatePerSec: 600}
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	rep := CheckReport{Replicas: nrep, Clients: clients, Arrival: arr.Normalized(), Cells: cells}

	// Ground truth: the canonical bytes of each cell from direct
	// public-API runs — what `pimserve -print` emits.
	expected := make([][]byte, len(cells))
	jobIDs := make([]string, len(cells))
	for i, c := range cells {
		cfg, err := heteropim.ParseConfig(c.Config)
		if err != nil {
			return rep, err
		}
		model, err := heteropim.ParseModel(c.Model)
		if err != nil {
			return rep, err
		}
		r, err := heteropim.Run(cfg, model)
		if err != nil {
			return rep, err
		}
		expected[i] = serve.EncodeResult(r)
		if jobIDs[i], err = serve.JobID(serve.JobRequest{Config: c.Config, Model: c.Model}); err != nil {
			return rep, err
		}
	}
	// The replicas share this process's result cache: evict the truth,
	// or the baseline's jobs would be hits on the very bytes they are
	// checked against.
	heteropim.DropSimulationCacheMemory()

	sopts := serve.Options{Workers: opts.Workers, QueueCapacity: opts.Queue, JobTimeout: opts.JobTimeout}
	dctx, dcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer dcancel()

	// Both phases serve exactly the same client total — 3 waves' worth —
	// so the dedup ratios compare like for like.
	wave := (clients + 2) / 3
	if wave < len(cells) {
		wave = len(cells) // every wave must cover every cell
	}
	totalClients := 3 * wave
	rep.Clients = totalClients

	// ---- Phase 1: single-node baseline (the PR-4 shape: no window, no
	// peers) over the same client count.
	single, err := startReplica("single", NewFleet(), sopts)
	if err != nil {
		return rep, err
	}
	fmt.Fprintf(logw, "pimserve: clustercheck baseline: 1 node, %d requests (%s arrivals), %d cells\n",
		totalClients, arr.Normalized(), len(cells))
	baseOffsets, err := waveOffsets(arr, totalClients, seed)
	if err != nil {
		return rep, err
	}
	sErrs, sIdent, _ := runWave(single.url, baseOffsets, cells, expected)
	st := single.srv.Stats()
	rep.Single = PhaseStats{
		Requests: int64(totalClients), LiveRuns: st.JobsRun,
		DedupHits: st.DedupHits, PeerHits: st.PeerHits, Batches: st.CoalesceBatches,
	}
	if st.JobsRun > 0 {
		rep.Single.Dedup = float64(totalClients) / float64(st.JobsRun)
	}
	if err := single.drain(dctx); err != nil {
		return rep, fmt.Errorf("clustercheck: baseline drain: %w", err)
	}
	if err := single.hs.Shutdown(dctx); err != nil {
		return rep, fmt.Errorf("clustercheck: baseline shutdown: %w", err)
	}
	if sErrs > 0 || !sIdent {
		return rep, fmt.Errorf("clustercheck: baseline phase failed (%d errors, identical=%t)", sErrs, sIdent)
	}

	// The baseline warmed the process-wide memory cache; drop it so the
	// cluster phase re-earns every result through its own dedup
	// machinery (and the shared L2 disk tier when HETEROPIM_CACHE_DIR
	// is set), the way separate replica processes would.
	heteropim.DropSimulationCacheMemory()

	// ---- Phase 2: the fleet.
	copts := sopts
	copts.CoalesceWindow = window
	fleet := NewFleet()
	replicas := make([]*replicaProc, nrep)
	for i := range replicas {
		if replicas[i], err = startReplica(fmt.Sprintf("replica-%d", i), fleet, copts); err != nil {
			return rep, err
		}
	}
	members := make([]Replica, nrep)
	for i, p := range replicas {
		members[i] = Replica{Name: p.name, BaseURL: p.url}
	}
	router := NewRouter(RouterOptions{Replicas: members, HealthInterval: health})
	defer router.Close()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rep, err
	}
	rhs := &http.Server{Handler: router.Handler()}
	go func() { _ = rhs.Serve(rln) }()
	routerURL := "http://" + rln.Addr().String()
	defer rhs.Shutdown(context.Background())

	fmt.Fprintf(logw, "pimserve: clustercheck cluster: %d replicas behind %s, 3 waves x %d requests (%s arrivals)\n",
		nrep, routerURL, wave, arr.Normalized())

	// One schedule per wave, seeded apart so the waves differ while the
	// whole check replays deterministically from (arrival, seed).
	waves := make([][]float64, 3)
	for w := range waves {
		if waves[w], err = waveOffsets(arr, wave, seed+int64(w)+1); err != nil {
			return rep, err
		}
	}

	t0 := time.Now()
	e1, i1, l1 := runWave(routerURL, waves[0], cells, expected)

	// Kill: pick the replica owning the most job ids and drain it — the
	// SIGTERM path. Its readyz flips to 503 immediately, so wave 2's
	// first submissions to it are rejected, rehashed and retried by the
	// router while the drained replica's results stay readable for
	// cross-replica adoption.
	owned := map[string]int{}
	for _, id := range jobIDs {
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
		victim.name, owned[victim.name], len(jobIDs))
	// The drain is deliberately silent — no departure announcement — so
	// wave 2 exercises the lost-announcement path: the router discovers
	// the drain from a 503'd submission and retries it on the new owner.
	if err := victim.drain(dctx); err != nil {
		return rep, fmt.Errorf("clustercheck: victim drain: %w", err)
	}

	e2, i2, l2 := runWave(routerURL, waves[1], cells, expected)

	// Full kill, then recovery under the same name (same shard range)
	// on a fresh port with empty state. The recovered replica rejoins by
	// announcing itself over the wire — the same POST /v1/replicas a
	// `pimserve -announce` replica sends — not by the harness reaching
	// into the router, so the check covers self-registration end to end.
	// This time the victim announces its departure over the wire first —
	// the same DELETE /v1/replicas/{name} a SIGTERM'd `pimserve
	// -announce` sends — so the graceful-exit path is covered end to end
	// alongside wave 2's unannounced drain.
	if err := Depart(nil, routerURL, victim.name); err != nil {
		return rep, fmt.Errorf("clustercheck: victim depart: %w", err)
	}
	if err := victim.shutdown(dctx, fleet); err != nil {
		return rep, fmt.Errorf("clustercheck: victim shutdown: %w", err)
	}
	router.RemoveReplica(victim.name)
	recovered, err := startReplica(victim.name, fleet, copts)
	if err != nil {
		return rep, err
	}
	if err := Announce(nil, routerURL, Replica{Name: recovered.name, BaseURL: recovered.url}); err != nil {
		return rep, fmt.Errorf("clustercheck: recovery announce: %w", err)
	}
	fmt.Fprintf(logw, "pimserve: clustercheck: recovered %s at %s (self-announced)\n", recovered.name, recovered.url)

	e3, i3, l3 := runWave(routerURL, waves[2], cells, expected)
	rep.WallSeconds = time.Since(t0).Seconds()

	// Collect before draining the fleet (counters survive drain anyway).
	servers := []*serve.Server{victim.srv, recovered.srv}
	for _, p := range replicas {
		if p != victim {
			servers = append(servers, p.srv)
		}
	}
	rep.Cluster = sumStats(servers)
	rep.Cluster.Requests = int64(totalClients)
	if rep.Cluster.LiveRuns > 0 {
		rep.Cluster.Dedup = float64(totalClients) / float64(rep.Cluster.LiveRuns)
	}
	rep.Errors = e1 + e2 + e3
	rep.ByteIdentical = i1 && i2 && i3
	rep.Announces = router.Registry().CounterValue("cluster.announces")
	rep.Departures = router.Registry().CounterValue("cluster.departures")
	rep.Rehashes = router.Registry().CounterValue("cluster.rehashes")
	rep.Retries = router.Registry().CounterValue("cluster.retries")
	rep.Reroutes = router.Registry().CounterValue("cluster.reroutes")
	rep.DedupOK = rep.Cluster.Dedup >= rep.Single.Dedup-1e-9
	for _, n := range router.ReadyReplicas() {
		if n == victim.name {
			rep.Recovered = true
		}
	}
	lats := append(append(l1, l2...), l3...)
	rep.LatencyP50Ms = percentileMs(lats, 0.50)
	rep.LatencyP99Ms = percentileMs(lats, 0.99)
	if rep.WallSeconds > 0 {
		rep.ThroughputRPS = float64(totalClients) / rep.WallSeconds
	}

	// Tear the fleet down cleanly.
	for _, p := range append([]*replicaProc{recovered}, replicas...) {
		if p == victim {
			continue
		}
		if err := p.drain(dctx); err != nil {
			return rep, fmt.Errorf("clustercheck: drain %s: %w", p.name, err)
		}
		if err := p.hs.Shutdown(dctx); err != nil {
			return rep, fmt.Errorf("clustercheck: shutdown %s: %w", p.name, err)
		}
	}

	// ---- Gates.
	switch {
	case nrep < 3:
		return rep, fmt.Errorf("clustercheck: %d replicas; the gate needs >= 3", nrep)
	case rep.Errors > 0:
		return rep, fmt.Errorf("clustercheck: %d client errors", rep.Errors)
	case !rep.ByteIdentical:
		return rep, fmt.Errorf("clustercheck: routed results not byte-identical to single-node runs")
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
