// Command pimserve is the simulation-as-a-service daemon: an HTTP JSON
// API over the heteropim simulator with admission control, request
// dedup, live Prometheus metrics and graceful drain — and, in router
// mode, the front door of a replica fleet: consistent-hash routing of
// content-addressed job ids, health-driven rehashing of a draining
// replica's shard range, and retry of in-flight submissions.
//
// Usage:
//
//	pimserve                                  # serve on 127.0.0.1:8080
//	pimserve -addr 127.0.0.1:0 -addrfile /tmp/addr   # ephemeral port for scripts
//	pimserve -router -backends URL1,URL2,URL3 # route jobs across a replica fleet
//	pimserve -router                          # empty router; replicas self-register
//	pimserve -announce http://router:8080     # replica: POST itself to the router's /v1/replicas
//	pimserve -clustercheck                    # serving check: 1 replica, then 3 + router with kill-and-recover; writes BENCH_cluster.json
//	pimserve -clustercheck -scenario f.json   # the same check over a scenario file's cells and arrival process
//	pimserve -print hetero,VGG-19             # canonical result JSON of one direct run
//
// Endpoints:
//
//	POST /v1/jobs                submit {"config","model","freq_scale","variant","batch_size","stacks","allreduce","processors","instrument"}
//	POST /v1/scenarios           compile a scenario document, admit one job per unique cell
//	                             (router: each cell goes to its owner)
//	GET  /v1/jobs/{id}           poll the job status document
//	GET  /v1/jobs/{id}/result    long-poll the canonical result bytes
//	GET  /v1/jobs/{id}/events    SSE lifecycle + progress stream
//	POST /v1/replicas            (router) replica self-registration
//	GET  /v1/replicas            (router) list the fleet with readiness
//	GET  /metrics                Prometheus text exposition
//	GET  /healthz, /readyz       liveness / readiness (503 while draining)
//	GET  /                       text status page
//
// SIGTERM/SIGINT drain gracefully: stop admitting, finish in-flight
// jobs, then exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"heteropim"
	"heteropim/internal/cliutil"
	"heteropim/internal/cluster"
	"heteropim/internal/serve"
)

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pimserve: %v\n", err)
	os.Exit(1)
}

// printDirect writes the canonical result JSON of one direct run —
// the bytes the daemon serves for the same cell, so scripts can diff
// served output against ground truth.
func printDirect(cell string) {
	parts := strings.SplitN(cell, ",", 2)
	if len(parts) != 2 {
		fail(fmt.Errorf("-print wants \"config,model\", got %q", cell))
	}
	cfg, err := heteropim.ParseConfig(strings.TrimSpace(parts[0]))
	if err != nil {
		fail(err)
	}
	model, err := heteropim.ParseModel(strings.TrimSpace(parts[1]))
	if err != nil {
		fail(err)
	}
	r, err := heteropim.Run(cfg, model)
	if err != nil {
		fail(err)
	}
	os.Stdout.Write(serve.EncodeResult(r))
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addrfile", "", "write the resolved base URL to this file once listening (for scripts)")
	workers := flag.Int("workers", 0, "simulation pool width (0 = GOMAXPROCS-derived)")
	queue := flag.Int("queue", 64, "admission queue capacity (full queue sheds load with 429)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-job queue-wait timeout")
	drainWait := flag.Duration("drainwait", 60*time.Second, "how long SIGTERM waits for in-flight jobs")
	router := flag.Bool("router", false, "run as the cluster router instead of a replica")
	backends := flag.String("backends", "", "router: comma-separated replica base URLs (optional; replicas can self-register)")
	announce := flag.String("announce", "", "replica: self-register with this router's /v1/replicas on startup")
	name := flag.String("name", "", "replica: fleet name used with -announce (default: the listen address)")
	healthEvery := flag.Duration("healthevery", 500*time.Millisecond, "router: replica readiness-probe period")
	clustercheck := flag.Bool("clustercheck", false, "run the in-process serving check (1 replica, then 3 + router with kill-and-recover) and exit")
	clients := flag.Int("clients", cluster.DefaultClients, "clustercheck: client total over the three waves")
	benchOut := flag.String("benchout", "BENCH_cluster.json", "clustercheck: report output path")
	printCell := flag.String("print", "", "print the canonical result JSON of one direct run (\"config,model\") and exit")
	loadScenario := cliutil.ScenarioFlag(flag.CommandLine)
	applyCache := cliutil.CacheFlags(flag.CommandLine)
	startProfile := cliutil.ProfileFlags(flag.CommandLine)
	flag.Parse()
	applyCache()
	defer startProfile()()

	if *printCell != "" {
		printDirect(*printCell)
		return
	}
	// -scenario swaps the check's embedded default mix for a file: its
	// cells and arrival process (closed-loop clients, open-loop
	// Poisson/diurnal/burst offsets) drive the waves.
	plan, err := loadScenario()
	if err != nil {
		fail(err)
	}
	if plan != nil && !*clustercheck {
		fail(fmt.Errorf("-scenario drives the serving check; combine it with -clustercheck " +
			"(daemons accept scenario documents on POST /v1/scenarios)"))
	}
	if *clustercheck {
		if err := runClustercheck(plan, *clients, *benchOut, *workers, *queue, *timeout); err != nil {
			fail(err)
		}
		return
	}
	if *router {
		runRouter(*addr, *addrFile, *backends, *healthEvery, *drainWait)
		return
	}

	srv := serve.New(serve.Options{Workers: *workers, QueueCapacity: *queue, JobTimeout: *timeout})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	baseURL := "http://" + ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(baseURL+"\n"), 0o644); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "pimserve: listening on %s\n", baseURL)
	if *announce != "" {
		go announceSelf(*announce, *name, baseURL)
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of re-draining

	fmt.Fprintln(os.Stderr, "pimserve: draining (no new jobs; finishing in-flight)")
	if *announce != "" {
		// Tell the router we are leaving before serving out the drain, so
		// our shard range rehashes now instead of at the next failed probe.
		departSelf(*announce, *name, baseURL)
	}
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "pimserve: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "pimserve: shutdown: %v\n", err)
		os.Exit(1)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "pimserve: drained clean: requests=%d dedup_hits=%d live_runs=%d rejected=%d\n",
		st.Requests, st.DedupHits, st.JobsRun, st.Rejected)
}
