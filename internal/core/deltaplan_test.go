package core

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// deepProbe runs one deep-watched probe and returns the watch plus the
// probe's processed-event total and unit budget.
func deepProbe(t *testing.T, g *nn.Graph, cfg hw.SystemConfig, opts Options) (*capWatch, uint64, int) {
	t.Helper()
	x, err := newExec(g, cfg, opts.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	w := &capWatch{maxUnits: math.MaxInt, deep: true}
	x.watch = w
	x.seed()
	if _, err := x.drainRun(); err != nil {
		t.Fatal(err)
	}
	total := x.eng.Processed()
	baseU := x.pool.Total()
	return w, total, baseU
}

// TestDeepWatchNarrowingMonotonic pins the range-narrowing discipline
// the deep-checkpoint soundness argument rests on: the recorded windows
// are nested (min never decreases, max never increases), stamped in
// nondecreasing event order, and every window contains the probe's own
// budget — the base run must never contradict its own predicates.
func TestDeepWatchNarrowingMonotonic(t *testing.T) {
	defer EnableResultCache(EnableResultCache(false))
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	opts := HeteroOptions()
	for _, g := range checkpointModels(t) {
		w, total, baseU := deepProbe(t, g, cfg, opts)
		if len(w.steps) == 0 {
			t.Fatalf("%s: deep watch recorded no narrowings", g.Model)
		}
		prevMin, prevMax := 0, math.MaxInt
		var prevEv uint64
		for i, s := range w.steps {
			if s.min < prevMin || s.max > prevMax {
				t.Fatalf("%s step %d: window [%d,%d] widened from [%d,%d]",
					g.Model, i, s.min, s.max, prevMin, prevMax)
			}
			if s.min > s.max {
				t.Fatalf("%s step %d: inverted window [%d,%d]", g.Model, i, s.min, s.max)
			}
			if s.processed < prevEv {
				t.Fatalf("%s step %d: event index %d before %d", g.Model, i, s.processed, prevEv)
			}
			if s.processed > total {
				t.Fatalf("%s step %d: event index %d past the run's %d events",
					g.Model, i, s.processed, total)
			}
			if baseU < s.min || baseU > s.max {
				t.Fatalf("%s step %d: base budget %d outside its own window [%d,%d]",
					g.Model, i, baseU, s.min, s.max)
			}
			prevMin, prevMax, prevEv = s.min, s.max, s.processed
		}
		if w.minUnits != prevMin || w.maxUnits != prevMax {
			t.Fatalf("%s: final watch window [%d,%d] disagrees with last step [%d,%d]",
				g.Model, w.minUnits, w.maxUnits, prevMin, prevMax)
		}
	}
}

// TestDeepCaptureRefusesBudgetSpecificPoints pins the deep capture
// guard: once a granule-1 grant (or an exact-Total clamp) collapses the
// watch window to the base budget alone, freezing that state helps no
// sibling — captureAt must refuse it — while the last boundary before
// the collapse must still capture.
func TestDeepCaptureRefusesBudgetSpecificPoints(t *testing.T) {
	defer EnableResultCache(EnableResultCache(false))
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	opts := HeteroOptions().withDefaults()
	w, _, _ := deepProbe(t, g, cfg, opts)
	var collapse uint64
	for _, s := range w.steps {
		if s.min >= s.max {
			collapse = s.processed
			break
		}
	}
	if collapse <= 1 {
		t.Fatalf("probe never collapsed to a single budget (steps %+v)", w.steps)
	}
	if _, err := captureAt(g, cfg, opts, collapse, true); err == nil {
		t.Fatal("deep captureAt accepted a budget-specific point")
	}
	cp, err := captureAt(g, cfg, opts, collapse-1, true)
	if err != nil {
		t.Fatalf("deep captureAt refused the last shareable boundary: %v", err)
	}
	if lo, hi := cp.UnitRange(); lo >= hi {
		t.Fatalf("pre-collapse checkpoint window [%d,%d] is degenerate", lo, hi)
	}
	if cp.SharedEvents() != collapse-1 {
		t.Fatalf("checkpoint covers %d events, want %d", cp.SharedEvents(), collapse-1)
	}
}

// TestDeltaPlanReplayBitIdentical is the deep-delta property test: for
// every model, forking any compatible unit budget from its deepest
// shared boundary reproduces the from-scratch result byte for byte —
// and the deep boundary actually reaches past the shallow layer's
// first-grant horizon.
func TestDeltaPlanReplayBitIdentical(t *testing.T) {
	defer EnableResultCache(EnableResultCache(false))
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	opts := HeteroOptions()
	for _, g := range checkpointModels(t) {
		plan, base, err := NewDeltaPlan(g, cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", g.Model, err)
		}
		if plan == nil {
			t.Fatalf("%s: no plan from a fixed-pool run", g.Model)
		}
		scratch, err := RunPIM(g, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if resultJSON(t, base) != resultJSON(t, scratch) {
			t.Fatalf("%s: probe result differs from a plain run", g.Model)
		}

		// The shallow layer's sharing depth for the same cell, as the
		// baseline the deep boundary must beat for near-base budgets.
		shallow, _, err := CheckpointRun(g, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if shallow == nil {
			t.Fatalf("%s: no shallow checkpoint", g.Model)
		}

		baseU := plan.BaseUnits()
		deeper := false
		for _, u := range []int{baseU - 1, baseU - 5, baseU * 3 / 4, baseU / 2, baseU / 4, 1} {
			if u < 1 || u == baseU {
				continue
			}
			cfg2 := cfg
			cfg2.FixedPIM.Units = u
			got, shared, err := plan.Replay(cfg2)
			if err != nil {
				// Budgets that diverge at the first event legitimately
				// fall back to full simulation.
				continue
			}
			want, err := RunPIM(g, cfg2, opts)
			if err != nil {
				t.Fatal(err)
			}
			if resultJSON(t, got) != resultJSON(t, want) {
				t.Errorf("%s u=%d: deep replay differs from scratch", g.Model, u)
			}
			if shared > shallow.SharedEvents() {
				deeper = true
			}
		}
		if !deeper {
			t.Errorf("%s: no deep fork reached past the shallow horizon (%d events)",
				g.Model, shallow.SharedEvents())
		}
	}
}

// TestDeltaPlanWholeRunWindow pins the best case: budgets inside the
// probe's final window share the entire timeline, so the fork replays
// from one event before the end and still reproduces the scratch result
// (the utilization integral re-accumulates under the fork's own total).
func TestDeltaPlanWholeRunWindow(t *testing.T) {
	defer EnableResultCache(EnableResultCache(false))
	g := smallGraph()
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	opts := HeteroOptions()
	plan, _, err := NewDeltaPlan(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("no plan")
	}
	w, total, baseU := deepProbe(t, g, cfg, opts)
	if w.minUnits >= w.maxUnits {
		t.Skipf("toy run's final window collapsed; no whole-run sibling to test")
	}
	u := w.minUnits
	if u == baseU {
		u = w.maxUnits
	}
	cfg2 := cfg
	cfg2.FixedPIM.Units = u
	got, shared, err := plan.Replay(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if shared != total-1 {
		t.Fatalf("whole-run sibling shared %d events, want %d", shared, total-1)
	}
	want, err := RunPIM(g, cfg2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, got) != resultJSON(t, want) {
		t.Fatal("whole-run fork differs from scratch")
	}
}

// TestDeltaPlanConcurrentForks replays many budgets through one plan
// concurrently (exercised under -race in CI): forks landing on the same
// deep boundary must share a single capture, and every result must
// match its from-scratch run.
func TestDeltaPlanConcurrentForks(t *testing.T) {
	defer EnableResultCache(EnableResultCache(false))
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	opts := HeteroOptions()
	plan, _, err := NewDeltaPlan(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("no plan")
	}
	// Budgets inside AlexNet's first quotient window (its 11x11 conv
	// granule keeps budgets >= 242 indistinguishable for ~100 events);
	// nearby budgets share one deep boundary, exercising the
	// capture-once path.
	baseU := plan.BaseUnits()
	units := []int{baseU - 1, baseU - 2, baseU - 3, baseU * 3 / 4, baseU*3/4 + 1, 250}
	want := make([]string, len(units))
	for i, u := range units {
		cfg2 := cfg
		cfg2.FixedPIM.Units = u
		r, err := RunPIM(g, cfg2, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultJSON(t, r)
	}
	var wg sync.WaitGroup
	got := make([]string, len(units))
	errs := make([]error, len(units))
	for i, u := range units {
		wg.Add(1)
		go func(i, u int) {
			defer wg.Done()
			cfg2 := cfg
			cfg2.FixedPIM.Units = u
			r, _, err := plan.Replay(cfg2)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = resultJSONString(r)
		}(i, u)
	}
	wg.Wait()
	for i := range units {
		if errs[i] != nil {
			t.Fatalf("u=%d: %v", units[i], errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("u=%d: concurrent deep fork differs from scratch", units[i])
		}
	}
}

// resultJSONString is resultJSON without the test handle, for use in
// goroutines.
func resultJSONString(r Result) string {
	b, err := json.Marshal(r)
	if err != nil {
		return "unmarshalable"
	}
	return string(b)
}
