package core

import (
	"encoding/json"
	"sync"
	"testing"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// checkpointModels are the graphs the delta-simulation properties are
// pinned on: the toy graph plus two real CNNs with different shapes.
func checkpointModels(t *testing.T) []*nn.Graph {
	t.Helper()
	vgg, err := nn.Build(nn.VGG19Name)
	if err != nil {
		t.Fatal(err)
	}
	alex, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	return []*nn.Graph{smallGraph(), alex, vgg}
}

// resultJSON renders a result for bit-exact comparison.
func resultJSON(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCheckpointReplayBitIdentical is the delta-simulation property
// test: for every platform and model, forking a run from its checkpoint
// under a compatible unit budget produces a result byte-identical to
// simulating that budget from scratch. Platforms without a fixed pool
// (CPU, GPU, Progr PIM) must take the graceful no-checkpoint path while
// still reproducing the base run exactly.
func TestCheckpointReplayBitIdentical(t *testing.T) {
	defer EnableResultCache(EnableResultCache(false))
	kinds := []hw.ConfigKind{hw.ConfigCPU, hw.ConfigGPU, hw.ConfigProgrPIM, hw.ConfigFixedPIM, hw.ConfigHeteroPIM}
	for _, g := range checkpointModels(t) {
		for _, kind := range kinds {
			cfg := hw.PaperConfigScaled(kind, 1)
			opts := HeteroOptions()
			cp, base, err := CheckpointRun(g, cfg, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", g.Model, kind, err)
			}
			scratch, err := RunPIM(g, cfg, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", g.Model, kind, err)
			}
			if resultJSON(t, base) != resultJSON(t, scratch) {
				t.Fatalf("%s/%v: probe result differs from a plain run", g.Model, kind)
			}
			if cfg.FixedPIM.Units == 0 {
				if cp != nil {
					t.Fatalf("%s/%v: checkpoint from a platform with no fixed pool", g.Model, kind)
				}
				continue
			}
			if cp == nil {
				t.Fatalf("%s/%v: no checkpoint from a fixed-pool run", g.Model, kind)
			}
			lo, hi := cp.UnitRange()
			if lo < 1 || hi < cfg.FixedPIM.Units {
				t.Fatalf("%s/%v: base units %d outside watched range [%d, %d]",
					g.Model, kind, cfg.FixedPIM.Units, lo, hi)
			}
			variants := []int{lo, (lo + cfg.FixedPIM.Units) / 2, cfg.FixedPIM.Units}
			for _, u := range variants {
				if u < lo || (hi > 0 && u > hi) {
					continue
				}
				cfg2 := cfg
				cfg2.FixedPIM.Units = u
				got, err := cp.Replay(cfg2)
				if err != nil {
					t.Fatalf("%s/%v u=%d: replay: %v", g.Model, kind, u, err)
				}
				want, err := RunPIM(g, cfg2, opts)
				if err != nil {
					t.Fatalf("%s/%v u=%d: scratch: %v", g.Model, kind, u, err)
				}
				if resultJSON(t, got) != resultJSON(t, want) {
					t.Errorf("%s/%v u=%d: replay result differs from scratch\nreplay:  %s\nscratch: %s",
						g.Model, kind, u, resultJSON(t, got), resultJSON(t, want))
				}
			}
			if err := cp.Compatible(hw.SystemConfig{}); err == nil {
				t.Fatalf("%s/%v: compatibility check accepted an unrelated config", g.Model, kind)
			}
		}
	}
}

// TestCheckpointConcurrentReplays forks one checkpoint into four
// concurrent replays (exercised under -race in CI) and checks each
// against its from-scratch result.
func TestCheckpointConcurrentReplays(t *testing.T) {
	defer EnableResultCache(EnableResultCache(false))
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	opts := HeteroOptions()
	cp, _, err := CheckpointRun(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint")
	}
	lo, _ := cp.UnitRange()
	base := cfg.FixedPIM.Units
	units := []int{base, lo, lo + (base-lo)/2, lo + (base-lo)/3}
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
			r, err := cp.Replay(cfg2)
			if err != nil {
				errs[i] = err
				return
			}
			b, _ := json.Marshal(r)
			got[i] = string(b)
		}(i, u)
	}
	wg.Wait()
	for i := range units {
		if errs[i] != nil {
			t.Fatalf("u=%d: %v", units[i], errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("u=%d: concurrent replay differs from scratch", units[i])
		}
	}
}

// TestCaptureAtRejectsPostGrantPoints pins the honesty of the capture
// guard: asking for a checkpoint at or past the first fixed-pool grant
// must fail rather than freeze budget-specific state.
func TestCaptureAtRejectsPostGrantPoints(t *testing.T) {
	defer EnableResultCache(EnableResultCache(false))
	g := smallGraph()
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	opts := HeteroOptions().withDefaults()
	// Find the horizon via a probe.
	x, err := newExec(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := &capWatch{maxUnits: 1 << 30}
	x.watch = w
	x.seed()
	if _, err := x.drainRun(); err != nil {
		t.Fatal(err)
	}
	if w.horizon == 0 {
		t.Fatal("toy hetero run never granted fixed units")
	}
	if _, err := captureAt(g, cfg, opts, w.horizon, false); err == nil {
		t.Fatal("captureAt accepted a point at the first grant")
	}
	if cp, err := captureAt(g, cfg, opts, w.horizon-1, false); err != nil || cp == nil {
		t.Fatalf("captureAt refused the last pre-grant point: %v", err)
	}
}

// TestCheckpointRefusesInstrumentedRuns: replayed prefixes cannot
// re-emit collector side effects, so instrumented options are rejected.
func TestCheckpointRefusesInstrumentedRuns(t *testing.T) {
	g := smallGraph()
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	opts := HeteroOptions()
	opts.Trace = func(hw.Seconds, int, *nn.Op, string) {}
	if _, _, err := CheckpointRun(g, cfg, opts); err == nil {
		t.Fatal("expected refusal for instrumented options")
	}
}
