// scenario_sweep shows the declarative scenario subsystem end to end:
// one versioned JSON document describes a cell grid (here a slice of
// the Fig. 8/9 configuration matrix crossed with the Fig. 11 frequency
// axis), the compiler expands and dedups it into an ordered BatchCell
// plan, and the plan renders through the exact CSV writer pimsweep
// uses — so this program's output is byte-identical to saving the
// document to a file and running `pimsweep -scenario grid.json`.
//
// It also compiles an open-loop arrival clause to show that the same
// document format drives load generation: a seeded Poisson process
// yields a deterministic request-offset schedule, the thing
// `pimserve -clustercheck -scenario ...` fires at its replicas.
package main

import (
	"encoding/csv"
	"fmt"
	"log"
	"os"

	"heteropim"
	"heteropim/internal/cliutil"
)

const grid = `{
  "scenario": 1,
  "name": "example-grid",
  "cells": [
    {"models": ["VGG-19", "AlexNet"],
     "configs": ["gpu", "hetero"],
     "freq_scales": [1, 2]},
    {"models": ["VGG-19"],
     "configs": ["hetero"],
     "freq_scales": [1]}
  ]
}`

const loadtest = `{
  "scenario": 1,
  "name": "example-load",
  "seed": 42,
  "cells": [{"models": ["VGG-19"], "configs": ["hetero"]}],
  "arrival": {"process": "poisson", "rate_per_sec": 200, "requests": 8}
}`

func main() {
	plan, err := heteropim.CompileScenario([]byte(grid))
	if err != nil {
		log.Fatal(err)
	}
	// The second cell set repeats (hetero, VGG-19, 1x) from the first:
	// the compiler folds it, keeping the accounting.
	fmt.Fprintf(os.Stderr, "scenario %q: %d cells requested, %d duplicates folded, %d to run\n",
		plan.Name, plan.Requested, plan.Duplicates, len(plan.Cells))

	w := csv.NewWriter(os.Stdout)
	if err := cliutil.WriteScenarioCSV(w, plan); err != nil {
		log.Fatal(err)
	}
	w.Flush()

	lt, err := heteropim.CompileScenario([]byte(loadtest))
	if err != nil {
		log.Fatal(err)
	}
	offsets, err := lt.Arrival.Schedule(lt.Seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "\nopen-loop %s arrival, seed %d (deterministic):\n",
		lt.Arrival.Normalized(), lt.Seed)
	for i, off := range offsets {
		fmt.Fprintf(os.Stderr, "  request %d fires at +%.1fms\n", i, off*1e3)
	}
}
