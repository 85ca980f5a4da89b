package heteropim

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"heteropim/internal/nn"
)

// The byte-identity floor: every committed output under testdata/golden
// is regenerated here and compared byte for byte. After an intentional
// model change, rewrite the files with
//
//	go test -run TestGolden -update .
//
// (make golden) and review the diff.
var update = flag.Bool("update", false, "rewrite testdata/golden from the current outputs")

// goldenTools builds the command-line tools once per test binary. Each
// golden command then runs in a fresh process, so the `simcache:` lines
// count one invocation's cache traffic only.
var goldenTools = struct {
	once sync.Once
	dir  string
	err  error
}{}

// tool returns the path of a built command-line tool.
func tool(t *testing.T, name string) string {
	t.Helper()
	goldenTools.once.Do(func() {
		dir, err := os.MkdirTemp("", "heteropim-golden-")
		if err != nil {
			goldenTools.err = err
			return
		}
		goldenTools.dir = dir
		cmd := exec.Command("go", "build", "-o", dir,
			"./cmd/pimtrain", "./cmd/pimprof", "./cmd/pimbench", "./cmd/pimdse")
		if out, err := cmd.CombinedOutput(); err != nil {
			goldenTools.err = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if goldenTools.err != nil {
		t.Fatalf("building the tools: %v", goldenTools.err)
	}
	return filepath.Join(goldenTools.dir, name)
}

// TestMain removes the built tools after the run.
func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if goldenTools.dir != "" {
		os.RemoveAll(goldenTools.dir)
	}
	os.Exit(code)
}

// runTool runs one tool and returns its stdout. The disk cache tier is
// switched off, so the `simcache:` lines do not depend on the caller's
// environment.
func runTool(t *testing.T, name string, args ...string) []byte {
	t.Helper()
	out, _ := runToolStreams(t, name, args...)
	return out
}

// runToolStreams is runTool returning stderr as well.
func runToolStreams(t *testing.T, name string, args ...string) (stdout, stderr []byte) {
	t.Helper()
	cmd := exec.Command(tool(t, name), args...)
	cmd.Env = append(os.Environ(), EnvCacheDir+"=")
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, errBuf.Bytes())
	}
	return out, errBuf.Bytes()
}

// checkGolden compares got with testdata/golden/<file>, or rewrites the
// file under -update.
func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the golden file (go test -run TestGolden -update . rewrites it):\n%s",
			path, firstDiff(want, got))
	}
}

// firstDiff renders the first differing line of two outputs.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return "line " + strconv.Itoa(i+1) + ":\n- " + w + "\n+ " + g
		}
	}
	return "(identical lines, different bytes)"
}

// goldenCells are the cell kinds no tool golden covers: the RC/OP
// variant and the processor count combined with stacks and frequency,
// a tree all-reduce, and batch-size overrides on every host kind.
func goldenCells() []struct {
	Name string
	Cell BatchCell
} {
	return []struct {
		Name string
		Cell BatchCell
	}{
		{"variant(OP) x stacks 2", BatchCell{Model: DCGAN, Variant: &Variant{OperationPipeline: true}, Stacks: 2}},
		{"variant(RC) x freq 2", BatchCell{Model: AlexNet, Variant: &Variant{RecursiveKernels: true}, FreqScale: 2}},
		{"processors 4 x stacks 2", BatchCell{Model: DCGAN, Processors: 4, Stacks: 2}},
		{"processors 4 x freq 2", BatchCell{Model: AlexNet, Processors: 4, FreqScale: 2}},
		{"fixed x stacks 4 x tree", BatchCell{Config: ConfigFixedPIM, Model: AlexNet, Stacks: 4, AllReduce: AllReduceTree}},
		{"hetero x batch 16 x freq 2", BatchCell{Config: ConfigHeteroPIM, Model: AlexNet, BatchSize: 16, FreqScale: 2}},
		{"gpu x batch 16", BatchCell{Config: ConfigGPU, Model: AlexNet, BatchSize: 16}},
		{"cpu x batch 16 x freq 2", BatchCell{Config: ConfigCPU, Model: AlexNet, BatchSize: 16, FreqScale: 2}},
	}
}

// goldenTimelines are the instrumented runs whose Chrome traces
// timelines.txt pins: single- and multi-stack Hetero PIM (ring and
// tree all-reduce) and a serial platform.
func goldenTimelines() []struct {
	Name string
	Cell BatchCell
} {
	return []struct {
		Name string
		Cell BatchCell
	}{
		{"hetero AlexNet", BatchCell{Config: ConfigHeteroPIM, Model: AlexNet}},
		{"hetero VGG-19 x stacks 2 x ring", BatchCell{Config: ConfigHeteroPIM, Model: VGG19, Stacks: 2, AllReduce: AllReduceRing}},
		{"hetero ResNet-50 x stacks 4 x tree", BatchCell{Config: ConfigHeteroPIM, Model: ResNet50, Stacks: 4, AllReduce: AllReduceTree}},
		{"cpu AlexNet", BatchCell{Config: ConfigCPU, Model: AlexNet}},
	}
}

// TestGolden regenerates every committed output and compares it byte
// for byte: the pimtrain, pimprof, pimbench (paper artifacts plus
// extensions) and pimdse outputs, the results of the cells in
// goldenCells, what instrumented pimtrain runs print (metrics JSON,
// advice, scheduling trace, placement census), and the SHA-256 and
// length of the goldenTimelines' Chrome traces.
func TestGolden(t *testing.T) {
	tools := []struct {
		file string
		tool string
		args []string
	}{
		{"pimtrain_all.txt", "pimtrain", []string{"-model", "VGG-19", "-config", "all"}},
		{"pimtrain_multistack.txt", "pimtrain", []string{"-model", "VGG-19", "-config", "hetero", "-stacks", "2", "-allreduce", "ring"}},
		{"pimprof.txt", "pimprof", nil},
		{"pimbench_ext.csv", "pimbench", []string{"-csv", "-ext"}},
		{"pimdse_paper.txt", "pimdse", []string{"-dse"}},
		{"pimdse_large.txt", "pimdse", []string{"-dse", "-grid", "large"}},
		{"pimdse_xl_verify.txt", "pimdse", []string{"-dse", "-grid", "xl-verify"}},
		{"pimtrain_metrics.json", "pimtrain", []string{"-model", "AlexNet", "-metrics", "-"}},
		{"pimtrain_metrics_multistack.json", "pimtrain", []string{"-model", "VGG-19", "-config", "hetero", "-stacks", "2", "-metrics", "-"}},
		{"pimtrain_advise.txt", "pimtrain", []string{"-model", "AlexNet", "-advise"}},
		{"pimtrain_explain.txt", "pimtrain", []string{"-model", "ResNet-50", "-explain"}},
	}
	for _, tc := range tools {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, tc.file, runTool(t, tc.tool, tc.args...))
		})
	}
	t.Run("cells.json", func(t *testing.T) {
		t.Parallel()
		gc := goldenCells()
		cells := make([]BatchCell, len(gc))
		for i, c := range gc {
			cells[i] = c.Cell
		}
		results, err := BatchRun(cells)
		if err != nil {
			t.Fatal(err)
		}
		type entry struct {
			Cell   string `json:"cell"`
			Result Result `json:"result"`
		}
		out := make([]entry, len(gc))
		for i, c := range gc {
			out[i] = entry{c.Name, results[i]}
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "cells.json", append(b, '\n'))
	})
	// -schedtrace prints its decisions on stderr and nothing on stdout.
	t.Run("pimtrain_schedtrace.txt", func(t *testing.T) {
		t.Parallel()
		stdout, stderr := runToolStreams(t, "pimtrain", "-model", "AlexNet", "-schedtrace")
		if len(stdout) != 0 {
			t.Errorf("pimtrain -schedtrace printed %d bytes on stdout, want none", len(stdout))
		}
		checkGolden(t, "pimtrain_schedtrace.txt", stderr)
	})
	// A Chrome trace runs to megabytes, so its golden is its digest.
	t.Run("timelines.txt", func(t *testing.T) {
		t.Parallel()
		var out, trace bytes.Buffer
		for _, c := range goldenTimelines() {
			m := NewMetrics()
			if _, err := Simulate(c.Cell, m); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			trace.Reset()
			if err := m.WriteTimeline(&trace); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			fmt.Fprintf(&out, "%s: sha256=%x bytes=%d\n", c.Name, sha256.Sum256(trace.Bytes()), trace.Len())
		}
		checkGolden(t, "timelines.txt", out.Bytes())
	})
	// The flag form of a cell prints what its one-cell scenario prints.
	t.Run("pimtrain_flags_match_scenario", func(t *testing.T) {
		t.Parallel()
		doc := filepath.Join(t.TempDir(), "cell.json")
		spec := `{"scenario": 1, "name": "batch-freq", "cells": [{"models": ["AlexNet"], "configs": ["hetero"], "batch_sizes": [16], "freq_scales": [2]}]}`
		if err := os.WriteFile(doc, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		flags := runTool(t, "pimtrain", "-model", "AlexNet", "-config", "hetero", "-batch", "16", "-freq", "2")
		scenario := runTool(t, "pimtrain", "-scenario", doc)
		if !bytes.Equal(flags, scenario) {
			t.Errorf("pimtrain -batch 16 -freq 2 differs from its scenario:\n%s", firstDiff(scenario, flags))
		}
	})
}

// TestPimtrainRefusesIgnoredFlags: -schedtrace, -explain and -fromtrace
// run one single-stack Hetero PIM cell, so another -config, -stacks
// above 1, or -batch with -fromtrace (the trace fixes the graph) must
// fail naming the flag instead of running that one cell. So must an
// unknown -allreduce on one stack, and a cell flag next to a -scenario
// file, which declares the cells.
func TestPimtrainRefusesIgnoredFlags(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	trace := filepath.Join(dir, "alexnet.trace")
	if err := os.WriteFile(trace, runTool(t, "pimprof", "-trace", "AlexNet"), 0o644); err != nil {
		t.Fatal(err)
	}
	scenario := filepath.Join(dir, "one.json")
	spec := `{"scenario": 1, "name": "one", "cells": [{"models": ["AlexNet"], "configs": ["hetero"]}]}`
	if err := os.WriteFile(scenario, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args  []string
		names []string // the flags the error must name
	}{
		{[]string{"-model", "AlexNet", "-explain", "-config", "cpu"}, []string{"-explain", "-config"}},
		{[]string{"-model", "AlexNet", "-explain", "-stacks", "4"}, []string{"-explain", "-stacks"}},
		{[]string{"-model", "AlexNet", "-schedtrace", "-config", "all"}, []string{"-schedtrace", "-config"}},
		{[]string{"-model", "AlexNet", "-schedtrace", "-stacks", "2"}, []string{"-schedtrace", "-stacks"}},
		{[]string{"-model", "AlexNet", "-fromtrace", trace, "-config", "progr"}, []string{"-fromtrace", "-config"}},
		{[]string{"-model", "AlexNet", "-fromtrace", trace, "-stacks", "2"}, []string{"-fromtrace", "-stacks"}},
		{[]string{"-model", "AlexNet", "-fromtrace", trace, "-batch", "16"}, []string{"-fromtrace", "-batch"}},
		{[]string{"-model", "AlexNet", "-config", "hetero", "-allreduce", "bogus"}, []string{"-allreduce"}},
		{[]string{"-scenario", scenario, "-config", "cpu", "-stacks", "4"}, []string{"-scenario", "-config", "-stacks"}},
		{[]string{"-scenario", scenario, "-model", "VGG-19"}, []string{"-scenario", "-model"}},
		{[]string{"-scenario", scenario, "-allreduce", "tree"}, []string{"-scenario", "-allreduce"}},
	} {
		cmd := exec.Command(tool(t, "pimtrain"), tc.args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("pimtrain %s exited 0, want an error", strings.Join(tc.args, " "))
			continue
		}
		for _, flag := range tc.names {
			if !strings.Contains(string(out), flag) {
				t.Errorf("pimtrain %s: error %q does not name %s", strings.Join(tc.args, " "), out, flag)
			}
		}
	}
	// The cells the flags describe still run.
	runTool(t, "pimtrain", "-model", "AlexNet", "-explain", "-config", "hetero", "-stacks", "1")
	runTool(t, "pimtrain", "-fromtrace", trace)
	runTool(t, "pimtrain", "-model", "AlexNet", "-allreduce", "tree")
	runTool(t, "pimtrain", "-scenario", scenario, "-nocache")
	// An empty -scenario names no file: the flag-driven cell runs.
	runTool(t, "pimtrain", "-scenario", "", "-model", "AlexNet", "-config", "cpu")
}

// TestPimtrainMetricsFollowTheCell: pimtrain -metrics instruments the
// cell its flags describe. A batch-16 or a 2-stack run has another
// makespan than the paper-batch run, and the 2-stack run's link track
// carries the gradient all-reduce.
func TestPimtrainMetricsFollowTheCell(t *testing.T) {
	t.Parallel()
	type snapshot struct {
		Makespan float64 `json:"makespan"`
		Tracks   []struct {
			Track       string  `json:"track"`
			BusySeconds float64 `json:"busy_seconds"`
		} `json:"tracks"`
	}
	metrics := func(flags ...string) snapshot {
		args := append([]string{"-model", "AlexNet", "-config", "hetero", "-metrics", "-"}, flags...)
		var s snapshot
		if err := json.Unmarshal(runTool(t, "pimtrain", args...), &s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	paper := metrics()
	if batch16 := metrics("-batch", "16"); batch16.Makespan == paper.Makespan {
		t.Errorf("-batch 16 -metrics reports the paper batch's makespan %g", paper.Makespan)
	}
	stacks2 := metrics("-stacks", "2")
	if stacks2.Makespan == paper.Makespan {
		t.Errorf("-stacks 2 -metrics reports the single-stack makespan %g", paper.Makespan)
	}
	link := 0.0
	for _, tr := range stacks2.Tracks {
		if tr.Track == "link" {
			link = tr.BusySeconds
		}
	}
	if link <= 0 {
		t.Errorf("-stacks 2 -metrics: link track busy %g, want > 0", link)
	}
}

// TestPimtrainExplainRowsSumToOpsPerStep: every op runs once per step,
// so each placement-census row of `pimtrain -explain` (the mean ops per
// step on the fixed, programmable and CPU paths) must sum to the
// number of ops of its type in one step, also for a type whose
// placement varies across steps. On ResNet-50 AvgPool, AvgPoolGrad
// and MatMul vary.
func TestPimtrainExplainRowsSumToOpsPerStep(t *testing.T) {
	g, err := nn.Build(nn.ResNet50Name)
	if err != nil {
		t.Fatal(err)
	}
	perStep := map[string]int{}
	for _, op := range g.Ops {
		perStep[string(op.Type)]++
	}
	out := string(runTool(t, "pimtrain", "-model", "ResNet-50", "-explain"))
	census, _, ok := strings.Cut(out, "\n\n")
	_, rows, found := strings.Cut(census, "Op type")
	if !ok || !found {
		t.Fatalf("no placement census in:\n%s", out)
	}
	seen := 0
	for _, line := range strings.Split(rows, "\n")[2:] {
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("census row %q: want a type and three counts", line)
		}
		var sum float64
		for _, s := range f[1:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatalf("census row %q: %v", line, err)
			}
			sum += v
		}
		if want := perStep[f[0]]; math.Abs(sum-float64(want)) > 0.015 {
			t.Errorf("%s: census row sums to %g ops per step, the graph has %d", f[0], sum, want)
		}
		seen++
	}
	if seen != len(perStep) {
		t.Errorf("census has %d rows, the graph %d op types", seen, len(perStep))
	}
}
