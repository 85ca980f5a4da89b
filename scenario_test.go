package heteropim

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCompileScenarioMatchesSweepSpecs pins the flag-to-scenario
// equivalence the CLIs rely on: every builtin sweep compiled through
// SweepScenario + CompileScenarioSpec is identical to hand-written
// scenario documents compiled through CompileScenario — same cells,
// same order, same accounting.
func TestCompileScenarioMatchesSweepSpecs(t *testing.T) {
	data, err := os.ReadFile("testdata/scenarios/paper_grid.json")
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := CompileScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SweepScenario("config", nil)
	if err != nil {
		t.Fatal(err)
	}
	fromSweep, err := CompileScenarioSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile.Cells, fromSweep.Cells) {
		t.Fatalf("paper grid cells differ:\n file: %+v\n sweep: %+v", fromFile.Cells, fromSweep.Cells)
	}
	if fromFile.Requested != fromSweep.Requested || fromFile.Duplicates != fromSweep.Duplicates {
		t.Fatalf("accounting differs: file %d/%d, sweep %d/%d",
			fromFile.Requested, fromFile.Duplicates, fromSweep.Requested, fromSweep.Duplicates)
	}
}

// TestSweepScenarioKinds: every builtin sweep kind compiles to a
// non-empty plan, and an unknown kind errors listing the valid ones.
func TestSweepScenarioKinds(t *testing.T) {
	for _, kind := range []string{"config", "freq", "variant", "batch", "stacks"} {
		spec, err := SweepScenario(kind, nil)
		if err != nil {
			t.Fatalf("SweepScenario(%q): %v", kind, err)
		}
		plan, err := CompileScenarioSpec(spec)
		if err != nil {
			t.Fatalf("compile %q: %v", kind, err)
		}
		if len(plan.Cells) == 0 {
			t.Errorf("sweep %q compiled to zero cells", kind)
		}
	}
	if _, err := SweepScenario("voltage", nil); err == nil {
		t.Fatal("unknown sweep kind accepted")
	}
}

// TestScenarioPlanRunsBitIdentical closes the loop on byte-parity: a
// compiled scenario executed through BatchRun equals the per-cell
// public entry points for a representative mixed-axis document.
func TestScenarioPlanRunsBitIdentical(t *testing.T) {
	doc := `{
	  "scenario": 1,
	  "cells": [
	    {"models": ["AlexNet"], "configs": ["cpu", "hetero"]},
	    {"models": ["AlexNet"], "configs": ["hetero"], "freq_scales": [2]},
	    {"models": ["AlexNet"], "configs": ["hetero"], "stacks": [2], "allreduce": ["tree"]},
	    {"models": ["AlexNet"], "variants": [{"recursive_kernels": true, "operation_pipeline": true}]}
	  ]
	}`
	plan, err := CompileScenario([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := BatchRun(plan.Cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d results, want 5", len(got))
	}

	want := make([]Result, 5)
	for i, c := range []BatchCell{
		{Config: ConfigCPU, Model: AlexNet},
		{Config: ConfigHeteroPIM, Model: AlexNet},
		{Config: ConfigHeteroPIM, Model: AlexNet, FreqScale: 2},
		{Config: ConfigHeteroPIM, Model: AlexNet, Stacks: 2, AllReduce: AllReduceTree},
		{Model: AlexNet, Variant: &Variant{RecursiveKernels: true, OperationPipeline: true}},
	} {
		if want[i], err = Simulate(c, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d: scenario result differs from the direct run", i)
		}
	}
}

// TestScenarioCorpusCompiles keeps every committed scenario document
// valid: each parses, compiles, and (when open-loop) schedules.
func TestScenarioCorpusCompiles(t *testing.T) {
	files, err := filepath.Glob("testdata/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario corpus: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := CompileScenario(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(plan.Cells) == 0 {
			t.Fatalf("%s: zero cells", f)
		}
		if plan.Arrival != nil {
			if _, err := plan.Arrival.Schedule(plan.Seed); err != nil {
				t.Fatalf("%s: schedule: %v", f, err)
			}
		}
	}
}
