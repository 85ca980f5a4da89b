package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"heteropim"
)

// TestJobIDsPinned holds the content-addressed ids of pre-scenario
// cells to their historical values: the id doubles as the cluster
// router's shard key and the cross-replica dedup address, so changing
// it for existing cells would orphan every cached result in a rolling
// upgrade. Extended axes may only append to the id when non-default.
func TestJobIDsPinned(t *testing.T) {
	cases := []struct {
		req  JobRequest
		want string
	}{
		{JobRequest{Config: "hetero", Model: "VGG-19"}, "j7935cf3adec7a1fe"},
		{JobRequest{Config: "gpu", Model: "AlexNet", FreqScale: 2}, "j6303732d495b5432"},
		{JobRequest{Config: "hetero", Model: "DCGAN",
			Variant: &VariantSpec{RecursiveKernels: true, OperationPipeline: true}}, "j2bf455a25124bcae"},
		{JobRequest{Config: "cpu", Model: "LSTM"}, "j523680b548e70fa8"},
		{JobRequest{Config: "hetero", Model: "VGG-19", Instrument: true}, "j7a2f6e6503d28993"},
		// Extended cells: not historical, but pinned from here on.
		{JobRequest{Config: "hetero", Model: "VGG-19", BatchSize: 32}, "j38b37da55593d708"},
		{JobRequest{Config: "hetero", Model: "VGG-19", Stacks: 4, AllReduce: "tree"}, "j6b38bc70ecd78852"},
		{JobRequest{Config: "hetero", Model: "VGG-19", Processors: 32}, "jcb126f08b913f0d3"},
	}
	for _, tc := range cases {
		id, err := JobID(tc.req)
		if err != nil {
			t.Fatalf("JobID(%+v): %v", tc.req, err)
		}
		if id != tc.want {
			t.Errorf("JobID(%+v) = %s, want %s", tc.req, id, tc.want)
		}
	}
	// Defaulted extended axes must not perturb the legacy id.
	for _, req := range []JobRequest{
		{Config: "hetero", Model: "VGG-19", Stacks: 1},
		{Config: "hetero", Model: "VGG-19", FreqScale: 1},
	} {
		if id, _ := JobID(req); id != "j7935cf3adec7a1fe" {
			t.Errorf("defaulted request %+v got id %s, want the plain cell's", req, id)
		}
	}
}

// TestRequestFromBatchRoundTrip: rendering a compiled scenario cell to
// the wire and normalizing it back must land on the cell's canonical
// form (hetero platform for variant and processor cells, frequency 1
// spelled out), and rendering that cell again must give the same
// request — so a scenario cell and its own POST /v1/jobs body share one
// dedup id.
func TestRequestFromBatchRoundTrip(t *testing.T) {
	for _, tc := range []struct{ in, want heteropim.BatchCell }{
		{
			in:   heteropim.BatchCell{Config: heteropim.ConfigHeteroPIM, Model: "VGG-19", FreqScale: 1},
			want: heteropim.BatchCell{Config: heteropim.ConfigHeteroPIM, Model: "VGG-19", FreqScale: 1},
		},
		{
			in:   heteropim.BatchCell{Config: heteropim.ConfigGPU, Model: "AlexNet", FreqScale: 2},
			want: heteropim.BatchCell{Config: heteropim.ConfigGPU, Model: "AlexNet", FreqScale: 2},
		},
		{
			in:   heteropim.BatchCell{Config: heteropim.ConfigHeteroPIM, Model: "DCGAN", BatchSize: 64},
			want: heteropim.BatchCell{Config: heteropim.ConfigHeteroPIM, Model: "DCGAN", FreqScale: 1, BatchSize: 64},
		},
		{
			in: heteropim.BatchCell{Config: heteropim.ConfigHeteroPIM, Model: "ResNet-50",
				Stacks: 4, AllReduce: heteropim.AllReduceTree},
			want: heteropim.BatchCell{Config: heteropim.ConfigHeteroPIM, Model: "ResNet-50", FreqScale: 1,
				Stacks: 4, AllReduce: heteropim.AllReduceTree},
		},
		{
			in: heteropim.BatchCell{Model: "VGG-19", Variant: &heteropim.Variant{RecursiveKernels: true}},
			want: heteropim.BatchCell{Config: heteropim.ConfigHeteroPIM, Model: "VGG-19", FreqScale: 1,
				Variant: &heteropim.Variant{RecursiveKernels: true}},
		},
		{
			in:   heteropim.BatchCell{Model: "VGG-19", Processors: 32},
			want: heteropim.BatchCell{Config: heteropim.ConfigHeteroPIM, Model: "VGG-19", FreqScale: 1, Processors: 32},
		},
	} {
		req := RequestFromBatch(tc.in)
		got, err := normalize(req)
		if err != nil {
			t.Fatalf("normalize(RequestFromBatch(%+v)): %v", tc.in, err)
		}
		if !reflect.DeepEqual(got.BatchCell, tc.want) || got.instrument {
			t.Errorf("cell mismatch for %+v:\n wire: %+v\n want: %+v", tc.in, got, tc.want)
		}
		if again := RequestFromBatch(got.BatchCell); !reflect.DeepEqual(again, req) {
			t.Errorf("re-rendering %+v gave %+v, want %+v", tc.in, again, req)
		}
	}
}

const testScenario = `{
  "scenario": 1,
  "name": "serve-test",
  "cells": [{"models": ["VGG-19", "AlexNet"], "configs": ["hetero"]}]
}`

// TestScenarioEndpoint covers the fan-out path end to end: one POST
// /v1/scenarios becomes one job per unique cell, each job's result is
// byte-identical to the direct public-API run, and resubmitting the
// scenario dedups onto the existing jobs.
func TestScenarioEndpoint(t *testing.T) {
	s := New(Options{Workers: 2, QueueCapacity: 16, JobTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func() ScenarioResponse {
		resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", bytes.NewReader([]byte(testScenario)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /v1/scenarios: %s", resp.Status)
		}
		var sr ScenarioResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	sr := post()
	if sr.Scenario != "serve-test" || sr.Requested != 2 || sr.Duplicates != 0 || len(sr.Jobs) != 2 {
		t.Fatalf("unexpected response: %+v", sr)
	}
	client := &http.Client{Timeout: time.Minute}
	for i, model := range []heteropim.Model{"VGG-19", "AlexNet"} {
		if sr.Jobs[i].Model != string(model) || sr.Jobs[i].Config != "hetero" {
			t.Fatalf("job %d is %s/%s, want hetero/%s", i, sr.Jobs[i].Config, sr.Jobs[i].Model, model)
		}
		resp, err := client.Get(ts.URL + "/v1/jobs/" + sr.Jobs[i].ID + "/result?wait=30s")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 0)
		buf := new(bytes.Buffer)
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		got = buf.Bytes()
		r, err := heteropim.Run(heteropim.ConfigHeteroPIM, model)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, EncodeResult(r)) {
			t.Errorf("job %d result differs from the direct run", i)
		}
	}

	again := post()
	for i := range again.Jobs {
		if again.Jobs[i].ID != sr.Jobs[i].ID {
			t.Errorf("resubmit job %d got id %s, want %s", i, again.Jobs[i].ID, sr.Jobs[i].ID)
		}
		if again.Jobs[i].Requests != 2 {
			t.Errorf("resubmit job %d has %d requests, want 2", i, again.Jobs[i].Requests)
		}
	}

	for name, body := range map[string]string{
		"bad version":  `{"scenario": 9, "cells": [{"models": ["VGG-19"]}]}`,
		"empty cells":  `{"scenario": 1, "cells": []}`,
		"unknown name": `{"scenario": 1, "cells": [{"models": ["NoSuchNet"]}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, want 400", name, resp.Status)
		}
	}
}

// TestDefaultLoadPlanMatchesLoadCells keeps the embedded scenario and
// the cell list in lockstep — the scenario document is the single
// source of truth for the default mix.
func TestDefaultLoadPlanMatchesLoadCells(t *testing.T) {
	plan, err := DefaultLoadPlan()
	if err != nil {
		t.Fatal(err)
	}
	cells := DefaultLoadCells()
	if len(plan.Cells) != 8 || len(cells) != 8 {
		t.Fatalf("plan %d cells, list %d cells, want 8/8", len(plan.Cells), len(cells))
	}
	for i, bc := range plan.Cells {
		if heteropim.ConfigName(bc.Config) != cells[i].Config || string(bc.Model) != cells[i].Model {
			t.Errorf("cell %d: plan %s/%s vs list %s/%s", i,
				heteropim.ConfigName(bc.Config), bc.Model, cells[i].Config, cells[i].Model)
		}
	}
}
