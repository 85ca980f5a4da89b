package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"heteropim"
	"heteropim/internal/cluster"
)

// runRouter runs pimserve as the fleet front door: consistent-hash
// routing of content-addressed job ids over the -backends replicas,
// with health-driven rehashing and in-flight retry. SIGTERM stops the
// health loop and exits 0 once in-flight proxied requests finish.
func runRouter(addr, addrFile, backends string, healthEvery, drainWait time.Duration) {
	var members []cluster.Replica
	for i, raw := range strings.Split(backends, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		if err := cluster.CheckBaseURL(raw); err != nil {
			fail(fmt.Errorf("-backends: %w", err))
		}
		members = append(members, cluster.Replica{
			Name:    fmt.Sprintf("replica-%d", i),
			BaseURL: strings.TrimRight(raw, "/"),
		})
	}
	// An empty fleet is fine now that replicas self-register: the router
	// serves 503 on /readyz until the first POST /v1/replicas arrives.
	if len(members) == 0 {
		fmt.Fprintln(os.Stderr, "pimserve: router starting with no backends; waiting for replica announcements")
	}

	rt := cluster.NewRouter(cluster.RouterOptions{Replicas: members, HealthInterval: healthEvery})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	baseURL := "http://" + ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(baseURL+"\n"), 0o644); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "pimserve: routing %d replicas on %s\n", len(members), baseURL)

	hs := &http.Server{Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}
	stop()

	fmt.Fprintln(os.Stderr, "pimserve: router draining (finishing in-flight proxied requests)")
	rt.Close()
	dctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "pimserve: router shutdown: %v\n", err)
		os.Exit(1)
	}
	reg := rt.Registry()
	fmt.Fprintf(os.Stderr, "pimserve: router drained clean: requests=%.0f rehashes=%.0f retries=%.0f reroutes=%.0f\n",
		reg.CounterValue("cluster.requests"), reg.CounterValue("cluster.rehashes"),
		reg.CounterValue("cluster.retries"), reg.CounterValue("cluster.reroutes"))
}

// announceSelf registers this replica with a router, retrying briefly
// (startup races the router's listener), then warn-only: a replica
// that cannot announce still serves — the router just won't route to
// it until someone registers it.
func announceSelf(routerURL, name, baseURL string) {
	name = replicaName(name, baseURL)
	client := &http.Client{Timeout: 5 * time.Second}
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		if err = cluster.Announce(client, strings.TrimRight(routerURL, "/"),
			cluster.Replica{Name: name, BaseURL: baseURL}); err == nil {
			fmt.Fprintf(os.Stderr, "pimserve: announced %s (%s) to %s\n", name, baseURL, routerURL)
			return
		}
		time.Sleep(300 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "pimserve: announce to %s failed (serving anyway): %v\n", routerURL, err)
}

// replicaName applies the -name default: the listen address.
func replicaName(name, baseURL string) string {
	if name == "" {
		return strings.TrimPrefix(strings.TrimPrefix(baseURL, "http://"), "https://")
	}
	return name
}

// departSelf announces a graceful drain to the router — DELETE
// /v1/replicas/{name} — so the shard range rehashes before the drain
// window starts rejecting submissions. Warn-only: an unreachable router
// discovers the drain through its readiness probe instead.
func departSelf(routerURL, name, baseURL string) {
	name = replicaName(name, baseURL)
	if err := cluster.Depart(nil, strings.TrimRight(routerURL, "/"), name); err != nil {
		fmt.Fprintf(os.Stderr, "pimserve: depart from %s failed (draining anyway): %v\n", routerURL, err)
		return
	}
	fmt.Fprintf(os.Stderr, "pimserve: departed %s from %s\n", name, routerURL)
}

// runClustercheck is the serving layer's acceptance check: the plan
// (nil: the default 8-cell mix) served by one replica, then by three
// replicas behind the router with one drained, killed and recovered
// mid-load. It writes BENCH_cluster.json and fails on any gate.
func runClustercheck(plan *heteropim.ScenarioPlan, clients int, benchOut string, workers, queue int, timeout time.Duration) error {
	rep, checkErr := cluster.RunCheck(cluster.CheckOptions{
		Plan:       plan,
		Clients:    clients,
		Workers:    workers,
		Queue:      queue,
		JobTimeout: timeout,
	})

	f, err := os.Create(benchOut)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"pimserve: clustercheck: replicas=%d errors=%d identical=%t dedup=%.1fx (single %.1fx) peer_hits=%d rehashes=%.0f retries=%.0f recovered=%t -> %s\n",
		rep.Replicas, rep.Errors, rep.ByteIdentical, rep.Cluster.Dedup, rep.Single.Dedup,
		rep.Cluster.PeerHits, rep.Rehashes, rep.Retries, rep.Recovered, benchOut)
	return checkErr
}
