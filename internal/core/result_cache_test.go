package core

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heteropim/internal/device"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/runner"
)

// withCleanCache gives the test an enabled, empty, memory-only result
// cache and restores the process-wide state afterwards.
func withCleanCache(t *testing.T) {
	t.Helper()
	prevOn := EnableResultCache(true)
	prevDir := SetResultCacheDir("")
	ResetResultCache()
	t.Cleanup(func() {
		ResetResultCache()
		EnableResultCache(prevOn)
		SetResultCacheDir(prevDir)
	})
}

// TestResultCacheHitsAreBitIdentical checks the cache's core contract
// over the full evaluation matrix: for every model and platform, a warm
// lookup returns a Result equal field-for-field (Result is all value
// types, so == is bit comparison) to the cold run that populated it.
func TestResultCacheHitsAreBitIdentical(t *testing.T) {
	withCleanCache(t)
	for _, m := range nn.CNNModelNames() {
		for _, kind := range hw.AllConfigKinds() {
			ResetResultCache()
			cold, err := buildAndRun(kind, m, 1)
			if err != nil {
				t.Fatalf("%s on %v (cold): %v", m, kind, err)
			}
			if st := ResultCacheStats(); st.Misses != 1 || st.Hits != 0 {
				t.Fatalf("%s on %v: cold stats %+v, want exactly one miss", m, kind, st)
			}
			warm, err := buildAndRun(kind, m, 1)
			if err != nil {
				t.Fatalf("%s on %v (warm): %v", m, kind, err)
			}
			if warm != cold {
				t.Errorf("%s on %v: warm result differs from cold run", m, kind)
			}
			if st := ResultCacheStats(); st.Misses != 1 || st.Hits != 1 {
				t.Errorf("%s on %v: warm stats %+v, want one miss + one hit", m, kind, st)
			}
		}
	}
}

// TestResultCacheDistinguishesInputs guards against fingerprint
// collisions between neighbouring cells: different models, frequency
// scales and option toggles must all run live.
func TestResultCacheDistinguishesInputs(t *testing.T) {
	withCleanCache(t)
	if _, err := buildAndRun(hw.ConfigHeteroPIM, nn.AlexNetName, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := buildAndRun(hw.ConfigHeteroPIM, nn.VGG19Name, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := buildAndRun(hw.ConfigHeteroPIM, nn.AlexNetName, 2); err != nil {
		t.Fatal(err)
	}
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := heteroVariant(g, false, true); err != nil {
		t.Fatal(err)
	}
	if st := ResultCacheStats(); st.Misses != 4 || st.Hits != 0 {
		t.Errorf("4 distinct cells gave stats %+v, want 4 misses and no hits", st)
	}
}

// TestInstrumentedRunsBypassCache checks that runs with a Trace hook
// (and by the same gate: a Collector) neither read nor populate the
// cache — their side effects must happen on every call.
func TestInstrumentedRunsBypassCache(t *testing.T) {
	withCleanCache(t)
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hw.PaperConfig(hw.ConfigHeteroPIM)
	for i := 0; i < 2; i++ {
		opts := HeteroOptions()
		decisions := 0
		opts.Trace = func(hw.Seconds, int, *nn.Op, string) { decisions++ }
		if _, err := RunPIM(g, cfg, opts); err != nil {
			t.Fatal(err)
		}
		if decisions == 0 {
			t.Fatalf("run %d: no scheduling decision traced — instrumented run was skipped", i)
		}
	}
	if st := ResultCacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("instrumented runs touched the cache: %+v", st)
	}
	// The instrumented runs must not have polluted the cache either: the
	// next uninstrumented call is a miss.
	if _, err := RunPIM(g, cfg, HeteroOptions()); err != nil {
		t.Fatal(err)
	}
	if st := ResultCacheStats(); st.Misses != 1 {
		t.Errorf("uninstrumented run after instrumented ones: stats %+v, want one miss", st)
	}
}

// TestDiskTier covers the persistent tier: a stored entry survives an
// in-memory reset, and corrupted or wrong-schema files degrade to live
// runs instead of errors.
func TestDiskTier(t *testing.T) {
	withCleanCache(t)
	SetResultCacheDir(t.TempDir())
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hw.PaperConfig(hw.ConfigHeteroPIM)
	cold, err := RunPIM(g, cfg, HeteroOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir, _ := resultCacheDir.Load().(string)
	files, err := filepath.Glob(filepath.Join(dir, "heteropim-*", "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("disk tier holds %d entries (%v), want 1", len(files), err)
	}

	// Hit from disk after the memory tier is dropped.
	ResetResultCache()
	warm, err := RunPIM(g, cfg, HeteroOptions())
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Errorf("disk-tier hit differs from cold run")
	}
	if st := ResultCacheStats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Errorf("disk-hit stats %+v, want one disk hit and no misses", st)
	}

	// A corrupted entry is a miss, never an error; the live run rewrites it.
	if err := os.WriteFile(files[0], []byte("{definitely not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	ResetResultCache()
	live, err := RunPIM(g, cfg, HeteroOptions())
	if err != nil {
		t.Fatalf("corrupted disk entry surfaced as error: %v", err)
	}
	if live != cold {
		t.Errorf("live run after corruption differs from original")
	}
	if st := ResultCacheStats(); st.Misses != 1 || st.DiskHits != 0 {
		t.Errorf("corrupted-entry stats %+v, want one miss", st)
	}

	// A wrong-schema entry (stale tier contents) is ignored the same way.
	stale, err := json.Marshal(diskEntry{Schema: "stale", Fingerprint: "bogus", Result: cold})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], stale, 0o644); err != nil {
		t.Fatal(err)
	}
	ResetResultCache()
	if _, err := RunPIM(g, cfg, HeteroOptions()); err != nil {
		t.Fatalf("stale disk entry surfaced as error: %v", err)
	}
	if st := ResultCacheStats(); st.Misses != 1 || st.DiskHits != 0 {
		t.Errorf("stale-entry stats %+v, want one miss", st)
	}
}

// TestDiskAddressesPinned pins one disk-tier file name per executor,
// AlexNet on its paper platform: a change to how fingerprintRun hashes
// a cell moves these addresses, and with them every entry an existing
// HETEROPIM_CACHE_DIR holds.
func TestDiskAddressesPinned(t *testing.T) {
	withCleanCache(t)
	src, err := nn.Named(nn.AlexNetName, 0)
	if err != nil {
		t.Fatal(err)
	}
	hetero := hw.PaperConfig(hw.ConfigHeteroPIM)
	for _, c := range []struct {
		executor, want string
		run            func()
	}{
		{"pim", "8a91db9b3bd0e984b51e2abf32a18a4d", func() {
			if _, err := RunPIM(src, hetero, HeteroOptions()); err != nil {
				t.Fatal(err)
			}
		}},
		{"cpu", "6fe4a3912188f68dcca4b72c7a76cba9", func() { RunCPU(src, hw.PaperConfig(hw.ConfigCPU), nil) }},
		{"gpu", "46a2bb4262c85041d5c4425eb894854d", func() { RunGPU(src, hw.PaperConfig(hw.ConfigGPU), nil) }},
		{"neurocube", "6bbcab9de4ff7f01d48616bb13d336f9", func() { RunNeurocube(src, device.DefaultNeurocube(), hetero) }},
	} {
		ResetResultCache()
		dir := t.TempDir()
		SetResultCacheDir(dir)
		c.run()
		files, err := filepath.Glob(filepath.Join(dir, "heteropim-*", "*.json"))
		if err != nil || len(files) != 1 {
			t.Fatalf("%s: disk tier holds %d entries (%v), want 1", c.executor, len(files), err)
		}
		if got := strings.TrimSuffix(filepath.Base(files[0]), ".json"); got != c.want {
			t.Errorf("%s: disk address %s, want %s", c.executor, got, c.want)
		}
	}
}

// TestDropMemoryKeepsDiskTierAndCounters covers the fleet-replica
// eviction primitive: DropResultCacheMemory must forget only the
// memory tier — a shared disk tier still answers (the L2 behind every
// replica's L1) and the running counters survive, unlike the full
// ResetResultCache.
func TestDropMemoryKeepsDiskTierAndCounters(t *testing.T) {
	withCleanCache(t)
	SetResultCacheDir(t.TempDir())
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hw.PaperConfig(hw.ConfigHeteroPIM)
	cold, err := RunPIM(g, cfg, HeteroOptions())
	if err != nil {
		t.Fatal(err)
	}

	DropResultCacheMemory()
	warm, err := RunPIM(g, cfg, HeteroOptions())
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Errorf("post-drop disk hit differs from cold run")
	}
	// One cold miss, then one disk hit (which also counts as a served
	// hit): Drop preserved both the disk tier and the miss counter.
	if st := ResultCacheStats(); st.Misses != 1 || st.DiskHits != 1 {
		t.Errorf("stats after drop+rerun %+v, want 1 miss + 1 disk hit", st)
	}

	// Without a disk tier the drop means a genuine re-simulation.
	SetResultCacheDir("")
	DropResultCacheMemory()
	again, err := RunPIM(g, cfg, HeteroOptions())
	if err != nil {
		t.Fatal(err)
	}
	if again != cold {
		t.Errorf("re-simulated result differs from cold run")
	}
	if st := ResultCacheStats(); st.Misses != 2 {
		t.Errorf("memory-only drop stats %+v, want a second miss", st)
	}
}

// TestSharedCacheUnderParallelRunner hammers one fingerprint from the
// worker pool (run under -race in `make verify`): singleflight must
// execute exactly one live simulation and hand every other caller the
// identical Result.
func TestSharedCacheUnderParallelRunner(t *testing.T) {
	withCleanCache(t)
	g, err := nn.Build(nn.AlexNetName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hw.PaperConfig(hw.ConfigHeteroPIM)
	const n = 24
	results, err := runner.Map(context.Background(), n, 8,
		func(_ context.Context, i int) (Result, error) {
			return RunPIM(g, cfg, HeteroOptions())
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Errorf("result %d differs from result 0", i)
		}
	}
	if st := ResultCacheStats(); st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("stats %+v, want 1 miss and %d hits", st, n-1)
	}
}
