package heteropim

import (
	"io"

	"heteropim/internal/hw"
	"heteropim/internal/metrics"
	"heteropim/internal/nn"
)

// Metrics holds the observability data of one instrumented run: the
// per-device timeline and the metrics registry (counters, gauges,
// histograms). It is safe for concurrent use.
type Metrics struct {
	c *metrics.Collector
}

// WriteTimeline writes the run's timeline in Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each
// device (cpu, gpu, prog, fixed, ...) gets its own track; overlapping
// spans on a multi-slot device split into numbered lanes; queue depths
// and busy-unit gauges become counter tracks.
func (m *Metrics) WriteTimeline(w io.Writer) error {
	return m.c.WriteChromeTrace(w)
}

// WriteJSON writes the machine-readable metrics dump: makespan,
// per-track busy time and share, top operations, and every counter,
// gauge series and histogram the run recorded.
func (m *Metrics) WriteJSON(w io.Writer) error {
	return m.c.Snapshot().WriteJSON(w)
}

// Advice renders the tfprof-style advisor reading: the bottleneck
// device, the most underutilized device, and the operation most
// responsible for time on the bottleneck.
func (m *Metrics) Advice() string {
	return metrics.Advise(m.c.Snapshot()).String()
}

// NewMetrics returns an empty Metrics ready to receive a run via
// Simulate. Live readers (a serving daemon streaming progress, a
// dashboard) can poll CounterValue while the run is still executing.
func NewMetrics() *Metrics {
	return &Metrics{c: metrics.NewCollector()}
}

// CounterValue reads one registry counter (0 when absent). Counters of
// an in-flight instrumented Simulate grow monotonically, so polling this is a
// cheap progress signal ("sim.events" counts processed engine events).
func (m *Metrics) CounterValue(name string) float64 {
	return m.c.Registry().CounterValue(name)
}

// ConfigNames lists the flag-style platform names ParseConfig accepts,
// sorted.
func ConfigNames() []string { return hw.ConfigFlagNames() }

// ParseConfig resolves a flag-style platform name (case-insensitive:
// cpu, gpu, progr, fixed, hetero) to its configuration kind. The error
// for an unknown name lists the valid ones. The scenario compiler and
// the serving POST body validate through the same table
// (hw.ParseConfigFlag), so every front door accepts the same spellings.
func ParseConfig(name string) (Config, error) { return hw.ParseConfigFlag(name) }

// ConfigName is the inverse of ParseConfig: the canonical flag-style
// name of a configuration ("" for an unknown kind). The serving layer
// uses it to render compiled scenario cells as wire requests.
func ConfigName(c Config) string { return hw.ConfigFlagName(c) }

// ModelNames lists the canonical model names ParseModel accepts,
// sorted (cf. ConfigNames).
func ModelNames() []string { return nn.ModelFlagNames() }

// ParseModel resolves a workload model name (case-insensitive:
// "vgg-19" and "VGG-19" both work) to its canonical Model. The error
// for an unknown name lists the valid ones (cf. ParseConfig).
func ParseModel(name string) (Model, error) { return nn.ParseModelName(name) }
