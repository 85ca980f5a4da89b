// Package metrics is the simulator's observability layer: a registry of
// named counters, gauges and histograms, a per-device span timeline, a
// Chrome trace-event exporter (loadable in Perfetto / chrome://tracing),
// a machine-readable JSON metrics dump, and a tfprof-style advisor.
//
// The package plays the role tfprof's timeline/scalar infrastructure
// plays for TensorFlow: every simulation can explain where its time went
// on which device, bank or pipeline stage. Collectors observe, never
// steer — attaching one must not change any simulation outcome.
package metrics

import (
	"math"
	"sort"
	"sync"
)

// defaultBuckets are decade buckets over seconds: they cover the span
// durations the simulator produces (microsecond kernels to multi-second
// macro operations). The last implicit bucket is +Inf.
var defaultBuckets = []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// histogram accumulates observations into fixed buckets.
type histogram struct {
	bounds []float64
	counts []int64
	sum    float64
	min    float64
	max    float64
	n      int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds)+1), min: math.Inf(1), max: math.Inf(-1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Registry is a mutex-protected collection of named metrics. One
// registry may be shared by concurrent simulation runs (every method is
// atomic under the registry lock); snapshots are deterministic — all
// series are emitted in sorted name order.
type Registry struct {
	mu       sync.Mutex
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]*histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]float64{},
		gauges:   map[string]float64{},
		hists:    map[string]*histogram{},
	}
}

// Add accumulates delta into the named counter.
func (r *Registry) Add(name string, delta float64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Set records the named gauge's value.
func (r *Registry) Set(name string, v float64) {
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Observe adds one observation to the named histogram (decade buckets
// over seconds).
func (r *Registry) Observe(name string, v float64) {
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(defaultBuckets)
		r.hists[name] = h
	}
	h.observe(v)
	r.mu.Unlock()
}

// CounterValue reads one counter (0 when absent).
func (r *Registry) CounterValue(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// NamedValue is one counter or gauge in a snapshot.
type NamedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramSnapshot is one histogram in a snapshot. Buckets[i] counts
// observations <= Bounds[i]; the final bucket counts the rest.
type HistogramSnapshot struct {
	Name    string    `json:"name"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
}

// RegistrySnapshot is a point-in-time copy of a registry, ordered by
// metric name so identical runs serialize to identical bytes.
type RegistrySnapshot struct {
	Counters   []NamedValue        `json:"counters"`
	Gauges     []NamedValue        `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s RegistrySnapshot
	for name, v := range r.counters {
		s.Counters = append(s.Counters, NamedValue{Name: name, Value: v})
	}
	for name, v := range r.gauges {
		s.Gauges = append(s.Gauges, NamedValue{Name: name, Value: v})
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Name: name, Count: h.n, Sum: h.sum, Min: h.min, Max: h.max,
			Bounds:  append([]float64(nil), h.bounds...),
			Buckets: append([]int64(nil), h.counts...),
		}
		if h.n == 0 {
			hs.Min, hs.Max = 0, 0
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
