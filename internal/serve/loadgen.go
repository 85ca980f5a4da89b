package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"heteropim"
	"heteropim/internal/scenario"
)

// The built-in load generator: a scenario document describes the cell
// mix and the arrival process (closed-loop N clients, or open-loop
// Poisson/diurnal/burst offsets), the shared scenario.Drive driver
// fires the requests over real HTTP, and the outcome (throughput,
// latency percentiles, dedup ratio, byte-identity against direct Run
// output) joins the bench trajectory as BENCH_serve.json.

// LoadCell is one (config, model) target of the generator.
type LoadCell struct {
	Config string `json:"config"`
	Model  string `json:"model"`
}

// defaultSelfcheckScenario is the embedded scenario behind the
// selfcheck's default 8-cell mix: four models on the hetero platform,
// the same four on the GPU baseline. `pimserve -selfcheck -scenario
// file.json` swaps in any other document with the same machinery.
const defaultSelfcheckScenario = `{
  "scenario": 1,
  "name": "selfcheck-default",
  "cells": [
    {"models": ["VGG-19", "AlexNet", "DCGAN", "ResNet-50"], "configs": ["hetero"]},
    {"models": ["VGG-19", "AlexNet", "DCGAN", "ResNet-50"], "configs": ["gpu"]}
  ]
}`

// DefaultSelfcheckPlan compiles the embedded selfcheck scenario.
func DefaultSelfcheckPlan() (*heteropim.ScenarioPlan, error) {
	return heteropim.CompileScenario([]byte(defaultSelfcheckScenario))
}

// DefaultLoadCells is the selfcheck's 8-cell mix, derived from the
// embedded scenario so the document stays the single source of truth
// for both the selfcheck and the cluster check.
func DefaultLoadCells() []LoadCell {
	plan, err := DefaultSelfcheckPlan()
	if err != nil {
		// The scenario is an embedded constant; failing to compile it is
		// a build defect, not a runtime condition.
		panic(err)
	}
	cells := make([]LoadCell, len(plan.Cells))
	for i, bc := range plan.Cells {
		cells[i] = LoadCell{Config: heteropim.ConfigName(bc.Config), Model: string(bc.Model)}
	}
	return cells
}

// LoadReport is the BENCH_serve.json shape.
type LoadReport struct {
	Scenario      string     `json:"scenario,omitempty"`
	Arrival       string     `json:"arrival,omitempty"`
	Clients       int        `json:"clients"`
	Cells         []LoadCell `json:"cells"`
	Requests      int64      `json:"requests"`
	Errors        int64      `json:"errors"`
	LiveRuns      int64      `json:"live_runs"`
	DedupHits     int64      `json:"dedup_hits"`
	DedupRatio    float64    `json:"dedup_ratio"`
	ByteIdentical bool       `json:"byte_identical"`
	WallSeconds   float64    `json:"wall_seconds"`
	ThroughputRPS float64    `json:"throughput_rps"`
	LatencyP50Ms  float64    `json:"latency_p50_ms"`
	LatencyP99Ms  float64    `json:"latency_p99_ms"`
	DrainClean    bool       `json:"drain_clean"`
}

// percentile reads the p-th percentile (0..1) from sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// driveLoad fires len(offsets) requests at baseURL through the shared
// scenario driver — request i departs at offsets[i] seconds and
// targets reqs[i%len(reqs)] — and verifies each body against expected.
func driveLoad(baseURL string, offsets []float64, reqs []JobRequest, expected [][]byte) (errs int64, identical bool, lats []float64, wall float64) {
	client := &http.Client{Timeout: 2 * time.Minute}
	identical = true
	var mu sync.Mutex
	res := scenario.Drive(offsets, func(i int) error {
		k := i % len(reqs)
		got, err := SubmitAndFetchRequest(client, baseURL, reqs[k])
		if err != nil {
			mu.Lock()
			fmt.Fprintf(os.Stderr, "loadgen request %d (%s/%s): %v\n", i, reqs[k].Config, reqs[k].Model, err)
			mu.Unlock()
			return err
		}
		if !bytes.Equal(got, expected[k]) {
			mu.Lock()
			identical = false
			mu.Unlock()
		}
		return nil
	})
	lats = make([]float64, len(res.Latencies))
	for i, d := range res.Latencies {
		lats[i] = d.Seconds()
	}
	return int64(res.Errors), identical, lats, res.Wall.Seconds()
}

// finishReport folds the drive outcome and the server's counters into
// the report (latencies must be sorted; scenario.Drive sorts them).
func (r *LoadReport) finish(errs int64, identical bool, lats []float64, wall float64, s *Server) {
	r.Errors = errs
	r.ByteIdentical = identical
	r.WallSeconds = wall
	r.LatencyP50Ms = percentile(lats, 0.50) * 1e3
	r.LatencyP99Ms = percentile(lats, 0.99) * 1e3
	if wall > 0 {
		r.ThroughputRPS = float64(len(lats)) / wall
	}
	st := s.Stats()
	r.Requests = st.Requests
	r.DedupHits = st.DedupHits
	r.LiveRuns = st.JobsRun
	if st.JobsRun > 0 {
		r.DedupRatio = float64(st.Requests) / float64(st.JobsRun)
	}
}

// LoadGen runs `clients` concurrent closed-loop clients against the
// daemon at baseURL, client i targeting cells[i%len(cells)]: POST the
// job, then long-poll its result and compare the bytes against the
// expected direct-Run encoding. The server's Stats() fills the dedup
// figures.
func LoadGen(baseURL string, clients int, cells []LoadCell, s *Server) (LoadReport, error) {
	rep := LoadReport{Clients: clients, Cells: cells}

	// Expected canonical bytes per cell, from direct public-API runs.
	reqs := make([]JobRequest, len(cells))
	expected := make([][]byte, len(cells))
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
		reqs[i] = JobRequest{Config: c.Config, Model: c.Model}
		expected[i] = EncodeResult(r)
	}
	// The server shares this process's result cache: evict the truth, or
	// every job would be a hit on the very bytes it is checked against.
	heteropim.DropSimulationCacheMemory()

	errs, identical, lats, wall := driveLoad(baseURL, make([]float64, clients), reqs, expected)
	rep.finish(errs, identical, lats, wall, s)
	return rep, nil
}

// ScenarioLoadGen drives a compiled scenario plan against the daemon
// at baseURL. A closed-loop plan (no arrival, or process "closed")
// fires `clients` concurrent requests at once, exactly like LoadGen; an
// open-loop plan derives its departure offsets from the arrival
// process under the scenario's seed, so the request count and timing
// come from the document, not the flag. Request i targets plan cell
// i%len(cells); every body is verified against the BatchRun encoding
// of its cell.
func ScenarioLoadGen(baseURL string, plan *heteropim.ScenarioPlan, clients int, s *Server) (LoadReport, error) {
	arr := heteropim.Arrival{}
	if plan.Arrival != nil {
		arr = *plan.Arrival
	}
	rep := LoadReport{Scenario: plan.Name, Arrival: arr.Normalized()}
	if len(plan.Cells) == 0 {
		return rep, fmt.Errorf("serve: scenario %q compiled to no cells", plan.Name)
	}

	reqs := make([]JobRequest, len(plan.Cells))
	for i, bc := range plan.Cells {
		reqs[i] = RequestFromBatch(bc)
		c, err := normalize(reqs[i])
		if err != nil {
			return rep, fmt.Errorf("serve: scenario cell %d: %w", i, err)
		}
		rep.Cells = append(rep.Cells, LoadCell{Config: heteropim.ConfigName(c.Config), Model: string(c.Model)})
	}
	// Ground truth straight from the public batch API — documented (and
	// tested) to be bit-identical to Simulate per cell.
	results, err := heteropim.BatchRun(plan.Cells)
	if err != nil {
		return rep, err
	}
	expected := make([][]byte, len(results))
	for i, r := range results {
		expected[i] = EncodeResult(r)
	}
	// As in LoadGen: served results must not be cache hits of the truth.
	heteropim.DropSimulationCacheMemory()

	var offsets []float64
	if arr.Open() {
		if offsets, err = arr.Schedule(plan.Seed); err != nil {
			return rep, err
		}
	} else {
		n := clients
		if arr.Clients > 0 {
			n = arr.Clients
		}
		offsets = make([]float64, n)
	}
	rep.Clients = len(offsets)

	errs, identical, lats, wall := driveLoad(baseURL, offsets, reqs, expected)
	rep.finish(errs, identical, lats, wall, s)
	return rep, nil
}

// SubmitAndFetch POSTs one job and long-polls its result bytes — one
// whole client interaction. The selfcheck load generator and the
// cluster check's wave runner share it, so a routed request exercises
// exactly the client path a direct one does.
func SubmitAndFetch(client *http.Client, baseURL string, cell LoadCell) ([]byte, error) {
	return SubmitAndFetchRequest(client, baseURL, JobRequest{Config: cell.Config, Model: cell.Model})
}

// SubmitAndFetchRequest is SubmitAndFetch over a full wire request, so
// scenario cells with extended axes (batch, stacks, variant,
// processors) ride the same submit-poll path.
func SubmitAndFetchRequest(client *http.Client, baseURL string, req JobRequest) ([]byte, error) {
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
		var st JobStatus
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

// WriteJSON writes the report as indented JSON plus newline.
func (r LoadReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
