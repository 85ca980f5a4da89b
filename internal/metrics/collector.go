package metrics

import (
	"encoding/json"
	"io"
	"sort"
	"sync"

	"heteropim/internal/hw"
	"heteropim/internal/sim"
)

// Collector implements sim.Collector. It records each observed value
// once: completed spans, gauge time series and counter totals, all
// under one lock, so one Collector may be shared across concurrent
// simulation runs (the parallel-sweep race test does exactly that);
// spans from different runs land in emission order. Everything else a
// report shows (per-track starts, busy time and duration histograms,
// last gauge values, the makespan) Snapshot derives from that record.
type Collector struct {
	mu     sync.Mutex
	spans  []Span
	series map[string][]SamplePoint
	counts map[string]float64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{series: map[string][]SamplePoint{}, counts: map[string]float64{}}
}

// TaskStart records nothing: TaskEnd records the whole span, and
// Snapshot counts a track's starts as its spans.
func (c *Collector) TaskStart(sim.Task) {}

// TaskEnd records the completed span.
func (c *Collector) TaskEnd(t sim.Task) {
	c.mu.Lock()
	c.spans = append(c.spans, Span{
		Track: t.Track, Name: t.Name, Kind: t.Kind, Step: t.Step,
		Start: float64(t.Start), End: float64(t.End),
	})
	c.mu.Unlock()
}

// Sample appends to the gauge's time series.
func (c *Collector) Sample(name string, at hw.Seconds, v float64) {
	c.mu.Lock()
	c.series[name] = append(c.series[name], SamplePoint{At: float64(at), Value: v})
	c.mu.Unlock()
}

// Count accumulates a counter.
func (c *Collector) Count(name string, delta float64) {
	c.mu.Lock()
	c.counts[name] += delta
	c.mu.Unlock()
}

// CounterValue reads one counter a run counted (0 when absent). The
// per-track entries Snapshot derives are not counters here.
func (c *Collector) CounterValue(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[name]
}

// Timeline copies the recorded spans and series.
func (c *Collector) Timeline() *Timeline {
	c.mu.Lock()
	defer c.mu.Unlock()
	tl := &Timeline{Spans: append([]Span(nil), c.spans...)}
	if len(c.series) > 0 {
		tl.Series = make(map[string][]SamplePoint, len(c.series))
		for name, pts := range c.series {
			tl.Series[name] = append([]SamplePoint(nil), pts...)
		}
	}
	return tl
}

// WriteChromeTrace exports the recorded timeline in Chrome trace-event
// JSON (Perfetto / chrome://tracing).
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	return c.Timeline().WriteChromeTrace(w)
}

// TrackStat summarizes one device track over the run.
type TrackStat struct {
	Track string `json:"track"`
	// BusySeconds is the summed span time on the track (unit-seconds
	// when lanes overlap).
	BusySeconds float64 `json:"busy_seconds"`
	// BusyShare is BusySeconds / makespan; > 1 means the track ran
	// more than one lane in parallel on average.
	BusyShare float64 `json:"busy_share"`
	Spans     int     `json:"spans"`
	// TopOp is the operation with the most summed span time on this
	// track (the advisor's stall attribution).
	TopOp        string  `json:"top_op,omitempty"`
	TopOpSeconds float64 `json:"top_op_seconds,omitempty"`
}

// OpStat aggregates span time per operation name.
type OpStat struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Spans   int     `json:"spans"`
}

// Snapshot is the machine-readable metrics dump of one instrumented
// run: the registry plus derived per-track and per-op aggregates.
type Snapshot struct {
	// Makespan is the latest span end observed (simulated seconds).
	Makespan float64     `json:"makespan"`
	Tracks   []TrackStat `json:"tracks"`
	// TopOps are the operations with the most summed span time,
	// descending, capped at 15.
	TopOps []OpStat `json:"top_ops"`
	RegistrySnapshot
}

// maxTopOps caps the per-op aggregate list in a snapshot.
const maxTopOps = 15

// Snapshot derives the metrics dump from the recorded state. Its
// registry part holds the counted totals, each gauge's last sample and,
// per track, starts.<t> (the track's span count), busy_seconds.<t> and
// the span_seconds.<t> duration histogram, all fed in span order.
func (c *Collector) Snapshot() Snapshot {
	type agg struct {
		secs  float64
		spans int
	}
	accumulate := func(m map[string]*agg, key string, dur float64) {
		a, ok := m[key]
		if !ok {
			a = &agg{}
			m[key] = a
		}
		a.secs += dur
		a.spans++
	}
	type trackAgg struct {
		agg
		hist *histogram
		ops  map[string]*agg
	}
	tracks := map[string]*trackAgg{}
	ops := map[string]*agg{}
	reg := NewRegistry()
	var makespan float64
	c.mu.Lock()
	for _, s := range c.spans {
		dur := s.End - s.Start
		tr, ok := tracks[s.Track]
		if !ok {
			tr = &trackAgg{hist: newHistogram(defaultBuckets), ops: map[string]*agg{}}
			tracks[s.Track] = tr
		}
		tr.secs += dur
		tr.spans++
		tr.hist.observe(dur)
		accumulate(tr.ops, s.Name, dur)
		accumulate(ops, s.Name, dur)
		if s.End > makespan {
			makespan = s.End
		}
	}
	for name, v := range c.counts {
		reg.counters[name] = v
	}
	for name, pts := range c.series {
		reg.gauges[name] = pts[len(pts)-1].Value
	}
	c.mu.Unlock()

	snap := Snapshot{Makespan: makespan}
	for name, a := range tracks {
		reg.counters["starts."+name] += float64(a.spans)
		reg.counters["busy_seconds."+name] += a.secs
		reg.hists["span_seconds."+name] = a.hist
		ts := TrackStat{Track: name, BusySeconds: a.secs, Spans: a.spans}
		if makespan > 0 {
			ts.BusyShare = a.secs / makespan
		}
		for op, oa := range a.ops {
			if oa.secs > ts.TopOpSeconds || (oa.secs == ts.TopOpSeconds && (ts.TopOp == "" || op < ts.TopOp)) {
				ts.TopOp, ts.TopOpSeconds = op, oa.secs
			}
		}
		snap.Tracks = append(snap.Tracks, ts)
	}
	snap.RegistrySnapshot = reg.Snapshot()
	sort.Slice(snap.Tracks, func(i, j int) bool { return snap.Tracks[i].Track < snap.Tracks[j].Track })
	for name, a := range ops {
		snap.TopOps = append(snap.TopOps, OpStat{Name: name, Seconds: a.secs, Spans: a.spans})
	}
	sort.Slice(snap.TopOps, func(i, j int) bool {
		if snap.TopOps[i].Seconds != snap.TopOps[j].Seconds {
			return snap.TopOps[i].Seconds > snap.TopOps[j].Seconds
		}
		return snap.TopOps[i].Name < snap.TopOps[j].Name
	})
	if len(snap.TopOps) > maxTopOps {
		snap.TopOps = snap.TopOps[:maxTopOps]
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
