package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// runOutput is a canned benchmark run's standard output: diagnostic and
// metric lines, then the result line.
func runOutput(cold, hot float64, correct bool) string {
	return strings.Join([]string{
		"# serve window 1: 8000 requests at 400/s",
		fmt.Sprintf("cold_ms %g ms", cold),
		fmt.Sprintf(`{"correct":%t,"attempted":8000,"failed":0,"metrics":{"cold_ms":{"value":%g,"unit":"ms"},"hot_ms":{"value":%g,"unit":"ms"}}}`,
			correct, cold, hot),
	}, "\n")
}

func parse(t *testing.T, out string) result {
	t.Helper()
	r, err := lastResult(out)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestQuartilesMatchPython pins the quartile rule to Python's
// statistics.quantiles(xs, n=4), whose values are in the comments.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want spread
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, spread{2.75, 5.5, 8.25}},
		{[]float64{6.15, 6.71, 5.97, 7.01}, spread{6.015, 6.43, 6.935}},
		{[]float64{2, 1}, spread{0.75, 1.5, 2.25}},
		{[]float64{4}, spread{4, 4, 4}},
	} {
		got := quartiles(c.xs)
		if !near(got.q1, c.want.q1) || !near(got.median, c.want.median) || !near(got.q3, c.want.q3) {
			t.Errorf("quartiles(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

// TestSummarizePairs compares canned result lines of four pairs, run on
// the same seeds, in both metric directions.
func TestSummarizePairs(t *testing.T) {
	baseCold := []float64{6.15, 6.71, 5.97, 7.01}
	changeCold := []float64{3.00, 3.46, 3.21, 3.78}
	hot := [][2]float64{{1.00, 1.02}, {1.10, 1.05}, {0.99, 1.01}, {1.03, 1.04}}
	var base, change []result
	for i := range baseCold {
		base = append(base, parse(t, runOutput(baseCold[i], hot[i][0], true)))
		change = append(change, parse(t, runOutput(changeCold[i], hot[i][1], true)))
	}

	cold := summarize(metric{Name: "cold_ms", Better: "lower", Bound: 0.24},
		values(base, "cold_ms"), values(change, "cold_ms"))
	if cold.won != 4 || cold.pairs != 4 {
		t.Errorf("cold_ms won %d/%d, want 4/4", cold.won, cold.pairs)
	}
	if !near(cold.delta, 3.335/6.43-1) || cold.verdict != "better beyond bound" || !cold.gapBeyondIQR {
		t.Errorf("cold_ms: %+v", cold)
	}

	// One pair of four won, +2% on the median: inside the bound, and
	// the medians are closer than the base's q1–q3.
	h := summarize(metric{Name: "hot_ms", Better: "lower", Bound: 0.24},
		values(base, "hot_ms"), values(change, "hot_ms"))
	if h.won != 1 || h.verdict != "within bound" || h.gapBeyondIQR {
		t.Errorf("hot_ms: %+v", h)
	}

	// The same numbers read as higher-is-better are a loss on every
	// pair, well beyond the bound.
	up := summarize(metric{Name: "cold_ms", Better: "higher", Bound: 0.24},
		values(base, "cold_ms"), values(change, "cold_ms"))
	if up.won != 0 || up.verdict != "worse beyond bound" {
		t.Errorf("higher-is-better cold_ms: %+v", up)
	}

	// A metric no run reports has no verdict.
	if none := summarize(metric{Name: "setup_s", Better: "lower", Bound: 0.25},
		values(base, "setup_s"), values(change, "setup_s")); none.won != 0 || none.verdict != "no data" {
		t.Errorf("missing metric: %+v", none)
	}
}

// TestLastResult reads the flags that fail a comparison from the last
// line, and refuses output that does not end in a result.
func TestLastResult(t *testing.T) {
	if r := parse(t, runOutput(3, 1, false)); r.Correct || r.Failed != 0 || r.Metrics["hot_ms"].Value != 1 {
		t.Errorf("parsed %+v", r)
	}
	if r := parse(t, `{"correct":true,"failed":2,"metrics":{}}`); !r.Correct || r.Failed != 2 {
		t.Errorf("parsed %+v", r)
	}
	if _, err := lastResult(runOutput(3, 1, true) + "\nbench: build failed"); err == nil {
		t.Error("output ending in a non-result line was accepted")
	}
}

func TestUsage(t *testing.T) {
	var out, errs strings.Builder
	for _, args := range [][]string{nil, {"HEAD", "serve", "ten", "20"}, {"HEAD", "serve", "10", "0"}} {
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
