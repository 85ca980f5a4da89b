package core

import (
	"fmt"
	"testing"
	"time"

	"heteropim/internal/hw"
	"heteropim/internal/metrics"
	"heteropim/internal/nn"
)

// BenchmarkLiveRun times live Hetero PIM runs — the result cache off,
// so every iteration simulates — and reports the cost per simulated
// event, each run's setup (placement, pool, task graph, engine) included, and
// the run's event count. The VGG-19 cases are two DSE candidates (60
// units; 400 units at 2x frequency), AlexNet runs the paper's platform.
//
//	go test -run '^$' -bench BenchmarkLiveRun -cpu 1 ./internal/core
func BenchmarkLiveRun(b *testing.B) {
	prev := EnableResultCache(false)
	defer EnableResultCache(prev)
	for _, c := range []struct {
		name  string
		model nn.ModelName
		units int // 0 keeps the paper's budget
		freq  float64
	}{
		{"VGG-19/60units", nn.VGG19Name, 60, 1},
		{"VGG-19/400units-2x", nn.VGG19Name, 400, 2},
		{"AlexNet", nn.AlexNetName, 0, 1},
	} {
		g, err := nn.Build(c.model)
		if err != nil {
			b.Fatal(err)
		}
		cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, c.freq)
		if c.units > 0 {
			cfg.FixedPIM = hw.PaperFixedPIM(c.units)
		}
		opts := HeteroOptions()
		b.Run(c.name, func(b *testing.B) {
			counted := opts
			counter := &countingCollector{counts: map[string]float64{}}
			counted.Collector = counter
			if _, err := RunPIM(g, cfg, counted); err != nil {
				b.Fatal(err)
			}
			events := counter.counts["sim.events"]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunPIM(g, cfg, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/events, "ns/event")
			b.ReportMetric(events, "events")
		})
	}
}

// BenchmarkInstrumentedRun times what observing a run costs: each
// iteration simulates a cell plain and then with a fresh
// metrics.Collector attached, the result cache off, and the benchmark
// reports the instrumented/plain time ratio beside the plain run's time.
//
//	go test -run '^$' -bench BenchmarkInstrumentedRun -cpu 1 ./internal/core
func BenchmarkInstrumentedRun(b *testing.B) {
	prev := EnableResultCache(false)
	defer EnableResultCache(prev)
	for _, c := range []struct {
		model    nn.ModelName
		platform hw.ConfigKind
	}{
		{nn.AlexNetName, hw.ConfigHeteroPIM},
		{nn.VGG19Name, hw.ConfigHeteroPIM},
		{nn.DCGANName, hw.ConfigFixedPIM},
	} {
		g, err := nn.Build(c.model)
		if err != nil {
			b.Fatal(err)
		}
		cfg := hw.PaperConfigScaled(c.platform, 1)
		opts, _ := PIMOptionsFor(c.platform)
		b.Run(fmt.Sprintf("%s/%v", c.model, c.platform), func(b *testing.B) {
			var plain, instrumented time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if _, err := RunPIM(g, cfg, opts); err != nil {
					b.Fatal(err)
				}
				plain += time.Since(start)
				observed := opts
				observed.Collector = metrics.NewCollector()
				start = time.Now()
				if _, err := RunPIM(g, cfg, observed); err != nil {
					b.Fatal(err)
				}
				instrumented += time.Since(start)
			}
			b.ReportMetric(float64(instrumented)/float64(plain), "instrumented/plain")
			b.ReportMetric(float64(plain.Nanoseconds())/float64(b.N), "plain-ns/run")
		})
	}
}

// BenchmarkRunSetup times a run's set-up alone (newExec: configuration,
// placement, engine, per-op tables, candidate set and task DAG) on
// three models, with the profile cache warm, as every run after a
// model's first pays it.
//
//	go test -run '^$' -bench BenchmarkRunSetup -benchmem ./internal/core
func BenchmarkRunSetup(b *testing.B) {
	for _, c := range setupCells() {
		cfg := hw.PaperConfigScaled(c.platform, 1)
		for _, name := range setupModels {
			g, err := nn.Build(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%v/%s", c.platform, name), func(b *testing.B) {
				if _, err := newExec(g, cfg, c.opts); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := newExec(g, cfg, c.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
