// Command benchcompare runs the repository benchmark on two checkouts
// and prints what changed: a clone of this repository at a base
// revision, and the working tree it is run from. For every end-to-end
// metric that BENCHMARK.json declares it prints each side's median and
// q1–q3, the change of the median in percent, how many pairs the
// working tree won, whether the change is beyond the metric's bound,
// and whether the medians are further apart than the base's q1–q3.
//
// Usage, from the repository root:
//
//	go run ./cmd/benchcompare BASE WORKLOAD PAIRS SECONDS
//	make bench-compare BASE=HEAD~1 WORKLOAD=serve PAIRS=10 SECONDS=20
//
// Pair i runs BENCHMARK.json's command (bash bench/run.sh) in both
// checkouts with --workload WORKLOAD --seed i --seconds SECONDS
// --trace 0. Odd pairs run the base first and even pairs the working
// tree first, so a host whose speed drifts over time does not favour
// one side. WORKLOAD all compares every workload BENCHMARK.json lists,
// one after the other, each in PAIRS pairs of its own, and prints one
// table per workload. The clone lives in a temporary directory outside
// the tree and is deleted on exit. The command exits 1 if any run
// fails, or reports "correct": false or "failed" > 0.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json this command reads.
type spec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

// workloads expands a WORKLOAD argument: "all" is every workload the
// spec lists, in its order; any other name stands for itself.
func (sp spec) workloads(name string) []string {
	if name != "all" {
		return []string{name}
	}
	var out []string
	for _, w := range sp.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// metric is one end-to-end metric declaration.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // largest tolerated relative worsening
}

// result is the last line a benchmark run prints.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

const usage = "usage: benchcompare BASE WORKLOAD PAIRS SECONDS (run from the repository root)"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 4 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	base, workload := args[0], args[1]
	pairs, err1 := strconv.Atoi(args[2])
	seconds, err2 := strconv.Atoi(args[3])
	if err1 != nil || err2 != nil || pairs < 1 || seconds < 1 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	if err := compare(base, workload, pairs, seconds, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "benchcompare:", err)
		return 1
	}
	return 0
}

func compare(base, workload string, pairs, seconds int, stdout, stderr io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(sp.Command) == 0 {
		return errors.New("BENCHMARK.json declares no command")
	}
	workloads := sp.workloads(workload)
	if len(workloads) == 0 {
		return errors.New("BENCHMARK.json declares no workloads")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rev, err := output(ctx, stderr, root, "git", "rev-parse", "--verify", base+"^{commit}")
	if err != nil {
		return fmt.Errorf("resolve %s: %w", base, err)
	}
	tmp, err := os.MkdirTemp("", "benchcompare-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseDir := filepath.Join(tmp, "base")
	if _, err := output(ctx, stderr, root, "git", "clone", "--quiet", "--no-checkout", root, baseDir); err != nil {
		return err
	}
	if _, err := output(ctx, stderr, baseDir, "git", "checkout", "--quiet", "--detach", rev); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "benchcompare: %s, %d pairs of %d s: base %.12s (%s) vs the working tree\n",
		workload, pairs, seconds, rev, base)

	bench := func(side int, workload string, seed int) (string, error) {
		dir := []string{baseDir, root}[side]
		args := append(sp.Command[1:len(sp.Command):len(sp.Command)], "--workload", workload,
			"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
		return output(ctx, stderr, dir, sp.Command[0], args...)
	}
	return comparePairs(ctx, sp, workloads, pairs, bench, stdout, stderr)
}

// comparePairs runs pairs of every workload through bench, which runs
// one side (0 base, 1 working tree) on one workload and seed and
// returns its standard output, and prints one table per workload.
func comparePairs(ctx context.Context, sp spec, workloads []string, pairs int,
	bench func(side int, workload string, seed int) (string, error), stdout, stderr io.Writer) error {
	var bad []string
	for _, workload := range workloads {
		var runs [2][]result // [0] base, [1] working tree
		for seed := 1; seed <= pairs; seed++ {
			order := []int{0, 1}
			if seed%2 == 0 {
				order = []int{1, 0}
			}
			for _, side := range order {
				out, err := bench(side, workload, seed)
				res, perr := lastResult(out)
				if ctx.Err() != nil {
					return ctx.Err()
				}
				name := []string{"base", "change"}[side]
				switch {
				case perr != nil:
					return fmt.Errorf("%s %s seed %d: %w", workload, name, seed, errors.Join(err, perr))
				case !res.Correct || res.Failed > 0:
					bad = append(bad, fmt.Sprintf("%s %s seed %d: correct=%t failed=%d", workload, name, seed, res.Correct, res.Failed))
				}
				runs[side] = append(runs[side], res)
				fmt.Fprintf(stderr, "benchcompare: %s seed %d %-6s %s\n", workload, seed, name, brief(sp.EndToEnd, res))
			}
		}

		fmt.Fprintf(stdout, "workload %s, %d pairs\n", workload, pairs)
		tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tbase median (q1–q3)\tchange median (q1–q3)\tchange\twon\tbound\tverdict\tgap > base q1–q3")
		for _, m := range sp.EndToEnd {
			r := summarize(m, values(runs[0], m.Name), values(runs[1], m.Name))
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d/%d\t%g%%\t%s\t%t\n", m.Name+" ("+m.Unit+")",
				r.base, r.change, pct(r.delta), r.won, r.pairs, m.Bound*100, r.verdict, r.gapBeyondIQR)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d runs were not clean:\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}

// output runs one command in dir and returns its standard output; its
// standard error goes to stderr, so build and benchmark progress shows.
func output(ctx context.Context, stderr io.Writer, dir, name string, args ...string) (string, error) {
	c := exec.CommandContext(ctx, name, args...)
	c.Dir = dir
	c.Stderr = stderr
	out, err := c.Output()
	if err != nil {
		err = fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), err
}

// lastResult parses the last line of a run's standard output.
func lastResult(out string) (result, error) {
	line := out[strings.LastIndexByte(out, '\n')+1:]
	var r result
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		return result{}, fmt.Errorf("last output line %q is not a result: %w", line, err)
	}
	return r, nil
}

// values collects one metric over runs; a run that lacks it gives NaN.
func values(runs []result, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		m, ok := r.Metrics[name]
		out[i] = m.Value
		if !ok {
			out[i] = math.NaN()
		}
	}
	return out
}

// brief renders one run's end-to-end metrics on a line.
func brief(ms []metric, r result) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "correct=%t failed=%d", r.Correct, r.Failed)
	for _, m := range ms {
		fmt.Fprintf(&b, " %s=%.4g", m.Name, r.Metrics[m.Name].Value)
	}
	return b.String()
}

// spread is a median with its q1–q3.
type spread struct{ q1, median, q3 float64 }

func (s spread) String() string { return fmt.Sprintf("%.4g (%.4g–%.4g)", s.median, s.q1, s.q3) }

// row is one metric's comparison.
type row struct {
	base, change spread
	delta        float64 // relative change of the median, change vs base
	won, pairs   int
	verdict      string
	gapBeyondIQR bool // |median change - median base| > base q3 - q1
}

// summarize compares one metric's paired runs: base[i] and change[i]
// ran on the same seed.
func summarize(m metric, base, change []float64) row {
	r := row{base: quartiles(base), change: quartiles(change), pairs: len(base)}
	r.delta = (r.change.median - r.base.median) / r.base.median
	for i := range base {
		if better(m, change[i], base[i]) {
			r.won++
		}
	}
	worse := r.delta
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case math.IsNaN(worse):
		r.verdict = "no data"
	case worse > m.Bound:
		r.verdict = "worse beyond bound"
	case -worse > m.Bound:
		r.verdict = "better beyond bound"
	default:
		r.verdict = "within bound"
	}
	r.gapBeyondIQR = math.Abs(r.change.median-r.base.median) > r.base.q3-r.base.q1
	return r
}

// better reports whether a beats b in m's direction.
func better(m metric, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// quartiles returns Q1, the median and Q3 of one or more samples by the
// rule of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), the same rule the benchmark's own spreads use.
func quartiles(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return spread{s[0], s[0], s[0]}
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return spread{q(1), q(2), q(3)}
}

func pct(x float64) string {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*x)
}
