package scenario

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func parseCompile(t *testing.T, doc string) (*Plan, error) {
	t.Helper()
	s, err := Parse([]byte(doc))
	if err != nil {
		return nil, err
	}
	return Compile(s)
}

func mustCompile(t *testing.T, doc string) *Plan {
	t.Helper()
	p, err := parseCompile(t, doc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func TestParseRejectsBadDocuments(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"empty", ``, "EOF"},
		{"not json", `{`, "scenario"},
		{"wrong version", `{"scenario": 2, "cells": [{"models": ["VGG-19"]}]}`, "version"},
		{"missing version", `{"cells": [{"models": ["VGG-19"]}]}`, "version"},
		{"unknown field", `{"scenario": 1, "cells": [{"models": ["VGG-19"]}], "bogus": 1}`, "bogus"},
		{"unknown cell field", `{"scenario": 1, "cells": [{"models": ["VGG-19"], "nope": []}]}`, "nope"},
		{"trailing data", `{"scenario": 1, "cells": [{"models": ["VGG-19"]}]} {"x":1}`, "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse([]byte(tc.doc)); err == nil {
				t.Fatalf("Parse accepted %s", tc.name)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestUnknownNamesListValidOnes(t *testing.T) {
	_, err := parseCompile(t, `{"scenario": 1, "cells": [{"models": ["VGG-99"]}]}`)
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	for _, want := range []string{"VGG-99", "VGG-19", "Word2vec"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("model error %q does not mention %q", err, want)
		}
	}

	_, err = parseCompile(t, `{"scenario": 1, "cells": [{"models": ["VGG-19"], "configs": ["tpu"]}]}`)
	if err == nil {
		t.Fatal("unknown config accepted")
	}
	for _, want := range []string{"tpu", "cpu", "hetero"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("config error %q does not mention %q", err, want)
		}
	}
}

func TestEmptyProductRejected(t *testing.T) {
	for name, doc := range map[string]string{
		"no cell sets": `{"scenario": 1, "cells": []}`,
		"no models":    `{"scenario": 1, "cells": [{"models": []}]}`,
	} {
		if _, err := parseCompile(t, doc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestConflictingAxesRejected(t *testing.T) {
	variant := `{"recursive_kernels": true, "operation_pipeline": false}`
	for name, doc := range map[string]string{
		"variants+processors": fmt.Sprintf(
			`{"scenario": 1, "cells": [{"models": ["VGG-19"], "variants": [%s], "processors": [32]}]}`, variant),
		"variants+configs": fmt.Sprintf(
			`{"scenario": 1, "cells": [{"models": ["VGG-19"], "variants": [%s], "configs": ["gpu"]}]}`, variant),
		"processors+configs": `{"scenario": 1, "cells": [{"models": ["VGG-19"], "processors": [32], "configs": ["gpu"]}]}`,
		"bad allreduce":      `{"scenario": 1, "cells": [{"models": ["VGG-19"], "stacks": [2], "allreduce": ["mesh"]}]}`,
		"negative batch":     `{"scenario": 1, "cells": [{"models": ["VGG-19"], "batch_sizes": [-4]}]}`,
		"negative freq":      `{"scenario": 1, "cells": [{"models": ["VGG-19"], "freq_scales": [-1]}]}`,
	} {
		if _, err := parseCompile(t, doc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The RC/OP and processor-count studies run at the paper batch size, so
// a cell set that also sweeps batch sizes is refused at compile time,
// as variants x configs is; batch size 0 (the paper's) still combines.
func TestBatchSizeWithVariantsOrProcessorsRejected(t *testing.T) {
	for name, doc := range map[string]string{
		"variants+batch":          `{"scenario": 1, "cells": [{"models": ["AlexNet"], "batch_sizes": [16, 128], "variants": [{"recursive_kernels": true, "operation_pipeline": true}]}]}`,
		"processors+batch":        `{"scenario": 1, "cells": [{"models": ["AlexNet"], "batch_sizes": [16], "processors": [4]}]}`,
		"variants+batch 0 and 16": `{"scenario": 1, "cells": [{"models": ["AlexNet"], "batch_sizes": [0, 16], "variants": [{"recursive_kernels": true, "operation_pipeline": true}]}]}`,
	} {
		if _, err := parseCompile(t, doc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	p, err := parseCompile(t, `{"scenario": 1, "cells": [{"models": ["AlexNet"], "batch_sizes": [0], "processors": [4]}]}`)
	if err != nil {
		t.Fatalf("processors at batch size 0 refused: %v", err)
	}
	if len(p.Cells) != 1 || p.Cells[0].BatchSize != 0 || p.Cells[0].Processors != 4 {
		t.Fatalf("processors at batch size 0 compiled to %+v", p.Cells)
	}
}

func TestDuplicatesFoldedWithCount(t *testing.T) {
	// The same 2-model set twice, plus an allreduce pair that collapses
	// at stacks==1: 2 sets x 2 models x 2 allreduce = 8 requested, 2 unique.
	doc := `{"scenario": 1, "cells": [
		{"models": ["VGG-19", "AlexNet"], "allreduce": ["ring", "tree"]},
		{"models": ["VGG-19", "AlexNet"], "allreduce": ["ring", "tree"]}
	]}`
	p := mustCompile(t, doc)
	if p.Requested != 8 || p.Duplicates != 6 || len(p.Cells) != 2 {
		t.Fatalf("requested=%d duplicates=%d cells=%d, want 8/6/2",
			p.Requested, p.Duplicates, len(p.Cells))
	}
	// First-occurrence order holds.
	if p.Cells[0].Model != "VGG-19" || p.Cells[1].Model != "AlexNet" {
		t.Fatalf("dedup broke order: %v", p.Cells)
	}
}

func TestCompileDeterministic(t *testing.T) {
	files, err := filepath.Glob("../../testdata/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario corpus: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		s1, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		p1, err := Compile(s1)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		s2, _ := Parse(data)
		p2, _ := Compile(s2)
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("%s: compile not deterministic", f)
		}
	}
}

func TestPoissonScheduleDeterministicUnderSeed(t *testing.T) {
	a := Arrival{Process: ArrivalPoisson, RatePerSec: 100, Requests: 50}
	s1, err := a.Schedule(42)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.Schedule(42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed produced different Poisson schedules")
	}
	if len(s1) != 50 {
		t.Fatalf("got %d offsets, want 50", len(s1))
	}
	for i := 1; i < len(s1); i++ {
		if s1[i] < s1[i-1] {
			t.Fatalf("offsets not non-decreasing at %d: %v < %v", i, s1[i], s1[i-1])
		}
	}
	s3, err := a.Schedule(43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestBurstReplayRoundTrip(t *testing.T) {
	trace := []float64{0, 0, 0.25, 0.25, 1.5}
	a := Arrival{Process: ArrivalBurst, TraceSec: trace}
	got, err := a.Schedule(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, trace) {
		t.Fatalf("burst schedule %v != trace %v", got, trace)
	}
	// The schedule is a copy: mutating it must not alias the spec.
	got[0] = 99
	if a.TraceSec[0] == 99 {
		t.Fatal("burst schedule aliases the spec's trace")
	}

	for name, bad := range map[string]Arrival{
		"empty":          {Process: ArrivalBurst},
		"decreasing":     {Process: ArrivalBurst, TraceSec: []float64{1, 0.5}},
		"negative":       {Process: ArrivalBurst, TraceSec: []float64{-1, 0}},
		"non-finite":     {Process: ArrivalBurst, TraceSec: []float64{0, math.NaN()}},
		"unknown kind":   {Process: "exponential"},
		"poisson norate": {Process: ArrivalPoisson, Requests: 10},
		"diurnal minmax": {Process: ArrivalDiurnal, RatePerSec: 10, MinRatePerSec: 20, PeriodSec: 1, DurationSec: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestDiurnalScheduleBoundedAndSeeded(t *testing.T) {
	a := Arrival{Process: ArrivalDiurnal, RatePerSec: 500, MinRatePerSec: 50, PeriodSec: 0.5, DurationSec: 1}
	s1, err := a.Schedule(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) == 0 {
		t.Fatal("diurnal schedule empty at rate 500/s over 1s")
	}
	for _, off := range s1 {
		if off < 0 || off > 1 {
			t.Fatalf("offset %v outside [0, duration]", off)
		}
	}
	s2, _ := a.Schedule(1)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed produced different diurnal schedules")
	}
}

func TestStacksCanonicalizeAllReduce(t *testing.T) {
	// stacks 1 collapses allreduce to ""; stacks > 1 defaults it to ring.
	p := mustCompile(t, `{"scenario": 1, "cells": [{"models": ["VGG-19"], "stacks": [1, 2]}]}`)
	if len(p.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(p.Cells))
	}
	if p.Cells[0].Stacks != 1 || p.Cells[0].AllReduce != "" {
		t.Fatalf("stacks-1 cell: %+v", p.Cells[0])
	}
	if p.Cells[1].Stacks != 2 || string(p.Cells[1].AllReduce) != "ring" {
		t.Fatalf("stacks-2 cell: %+v", p.Cells[1])
	}
}
