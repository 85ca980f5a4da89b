package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"heteropim/internal/sim"
)

// TestRegistrySnapshotDeterminism checks two identically-fed registries
// serialize to identical bytes (sorted series, stable buckets).
func TestRegistrySnapshotDeterminism(t *testing.T) {
	feed := func() *Registry {
		r := NewRegistry()
		r.Add("zeta", 2)
		r.Add("alpha", 1)
		r.Set("gauge.b", 4)
		r.Set("gauge.a", 7)
		r.Observe("hist.x", 1e-5)
		r.Observe("hist.x", 3)
		return r
	}
	a, err := json.Marshal(feed().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(feed().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(`"alpha"`)) {
		t.Fatal("snapshot lost a counter")
	}
}

// TestHistogramBuckets checks observations land in the right buckets.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	r.Observe("dur", 5e-6) // <= 1e-5 bucket (index 2)
	r.Observe("dur", 100)  // overflow bucket
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("got %d histograms, want 1", len(s.Histograms))
	}
	h := s.Histograms[0]
	if h.Count != 2 || h.Min != 5e-6 || h.Max != 100 {
		t.Fatalf("histogram stats wrong: %+v", h)
	}
	if h.Buckets[2] != 1 || h.Buckets[len(h.Buckets)-1] != 1 {
		t.Fatalf("bucket placement wrong: %v", h.Buckets)
	}
	if len(h.Buckets) != len(h.Bounds)+1 {
		t.Fatalf("bucket/bound count mismatch: %d vs %d", len(h.Buckets), len(h.Bounds))
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines;
// meaningful under -race, and the totals must still add up.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Add("n", 1)
				r.Observe("h", 0.5)
				r.Set("g", float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue("n"); got != workers*per {
		t.Fatalf("counter = %v, want %d", got, workers*per)
	}
}

// span is a test shorthand.
func span(track, name string, step int, start, end float64) sim.Task {
	return sim.Task{Track: track, Name: name, Kind: "op", Step: step, Start: start, End: end}
}

// TestChromeTraceRoundTrip builds a timeline with overlapping spans,
// exports it, re-parses the JSON, and validates the schema: lane
// metadata present, spans non-overlapping per tid, counters carried.
func TestChromeTraceRoundTrip(t *testing.T) {
	c := NewCollector()
	c.TaskEnd(span("cpu", "Conv2D", 0, 0, 2))
	c.TaskEnd(span("cpu", "MatMul", 0, 1, 3)) // overlaps Conv2D -> second lane
	c.TaskEnd(span("prog", "ReLU", 1, 0.5, 0.75))
	c.Sample("queue.cpu", 0.25, 2)
	c.Sample("queue.cpu", 1.5, 1)
	c.Count("sched.path.cpu", 2)

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if err := ct.Validate(); err != nil {
		t.Fatal(err)
	}

	// The overlapping cpu spans must land on distinct tids, and both
	// tids must be named for the cpu track.
	byTID := map[int][][2]float64{}
	names := map[int]string{}
	var counters int
	for _, ev := range ct.TraceEvents {
		switch {
		case ev.Phase == "M" && ev.Name == "thread_name":
			names[ev.TID] = ev.Args["name"].(string)
		case ev.Phase == "X":
			byTID[ev.TID] = append(byTID[ev.TID], [2]float64{ev.TS, ev.TS + ev.Dur})
		case ev.Phase == "C":
			counters++
		}
	}
	if counters != 2 {
		t.Fatalf("got %d counter events, want 2", counters)
	}
	cpuLanes := 0
	for tid, name := range names {
		if strings.HasPrefix(name, "cpu") {
			cpuLanes++
		}
		spans := byTID[tid]
		for i := 1; i < len(spans); i++ {
			if spans[i][0] < spans[i-1][1] {
				t.Fatalf("tid %d (%s): overlapping spans %v", tid, name, spans)
			}
		}
	}
	if cpuLanes != 2 {
		t.Fatalf("cpu track used %d lanes, want 2 (overlap must split)", cpuLanes)
	}
}

// TestChromeTraceDeterminism checks identical timelines export to
// identical bytes.
func TestChromeTraceDeterminism(t *testing.T) {
	build := func() *Collector {
		c := NewCollector()
		c.TaskEnd(span("fixed", "Conv2DBackpropFilter", 2, 0, 1))
		c.TaskEnd(span("cpu", "BiasAdd", 0, 0, 0.1))
		c.Sample("fixed.busy_units", 0.5, 128)
		return c
	}
	var a, b bytes.Buffer
	if err := build().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("exports differ:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestSnapshotAndAdvisor checks the derived aggregates and the advisor
// report on a hand-built scenario: cpu busy 90%, prog busy 10%, Conv2D
// dominating the cpu.
func TestSnapshotAndAdvisor(t *testing.T) {
	c := NewCollector()
	c.TaskEnd(span("cpu", "Conv2D", 0, 0, 6))
	c.TaskEnd(span("cpu", "MatMul", 0, 6, 9))
	c.TaskEnd(span("prog", "ReLU", 0, 0, 1))
	c.TaskEnd(span("residual.prog", "Conv2D", 0, 9, 10))
	c.TaskEnd(span("residual.prog", "ReLU", 1, 0.1, 0.3))
	c.TaskEnd(span("residual.prog", "ReLU", 1, 0.3, 0.7))
	c.Count("sched.cpu_fallback", 3)
	c.Sample("queue.cpu", 1, 2)
	c.Sample("fixed.busy_units", 2, 128)
	c.Sample("queue.cpu", 4, 0)

	s := c.Snapshot()
	if s.Makespan != 10 {
		t.Fatalf("makespan = %v, want 10", s.Makespan)
	}
	if len(s.Tracks) != 3 {
		t.Fatalf("got %d tracks, want 3: %+v", len(s.Tracks), s.Tracks)
	}

	// The registry part is derived from the spans and series: per
	// track, starts and busy_seconds equal its stats bit for bit and
	// span_seconds counts its spans; each gauge reads its last sample.
	values := func(vs []NamedValue) map[string]float64 {
		m := map[string]float64{}
		for _, v := range vs {
			m[v.Name] = v.Value
		}
		return m
	}
	counters, gauges := values(s.Counters), values(s.Gauges)
	hists := map[string]HistogramSnapshot{}
	for _, h := range s.Histograms {
		hists[h.Name] = h
	}
	if len(counters) != 1+2*len(s.Tracks) || len(hists) != len(s.Tracks) || counters["sched.cpu_fallback"] != 3 {
		t.Fatalf("registry part wrong: counters %v, histograms %d", counters, len(hists))
	}
	for _, ts := range s.Tracks {
		if got := counters["starts."+ts.Track]; got != float64(ts.Spans) {
			t.Errorf("starts.%s = %v, want %d", ts.Track, got, ts.Spans)
		}
		if got := counters["busy_seconds."+ts.Track]; math.Float64bits(got) != math.Float64bits(ts.BusySeconds) {
			t.Errorf("busy_seconds.%s = %v, want %v", ts.Track, got, ts.BusySeconds)
		}
		if h := hists["span_seconds."+ts.Track]; h.Count != int64(ts.Spans) {
			t.Errorf("span_seconds.%s counts %d spans, want %d", ts.Track, h.Count, ts.Spans)
		}
	}
	if len(gauges) != 2 || gauges["queue.cpu"] != 0 || gauges["fixed.busy_units"] != 128 {
		t.Fatalf("gauges %v, want each series' last sample", gauges)
	}
	cpu := s.Tracks[0]
	if cpu.Track != "cpu" || cpu.BusySeconds != 9 || cpu.BusyShare != 0.9 || cpu.TopOp != "Conv2D" {
		t.Fatalf("cpu track stats wrong: %+v", cpu)
	}
	if s.TopOps[0].Name != "Conv2D" || s.TopOps[0].Seconds != 7 {
		t.Fatalf("top op wrong: %+v", s.TopOps[0])
	}

	a := Advise(s)
	if a.Bottleneck != "cpu" || a.Underutilized != "prog" || a.StallOp != "Conv2D" {
		t.Fatalf("advice wrong: %+v", a)
	}
	text := a.String()
	for _, want := range []string{"bottleneck", "underutilized", "Conv2D", "fell back"} {
		if !strings.Contains(text, want) {
			t.Fatalf("advice text missing %q:\n%s", want, text)
		}
	}
}

// TestCollectorConcurrent feeds one collector from several goroutines
// while another polls CounterValue and Snapshot, as serve's progress
// ticks do on an instrumented job. Meaningful under -race; the totals
// must add up, and no poll may see a counter shrink.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	const workers, per = 4, 500
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		last := 0.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := c.CounterValue("n")
			if n < last || n > workers*per {
				t.Errorf("polled counter %v after %v (total %d)", n, last, workers*per)
			}
			last = n
			for _, ts := range c.Snapshot().Tracks {
				if ts.Spans > workers*per {
					t.Errorf("polled snapshot holds %d spans on %s", ts.Spans, ts.Track)
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(track string) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s := span(track, "op", i, float64(i), float64(i)+0.5)
				c.TaskStart(s)
				c.TaskEnd(s)
				c.Sample("g", float64(i), float64(i))
				c.Count("n", 1)
			}
		}([]string{"cpu", "fixed"}[w%2])
	}
	wg.Wait()
	close(stop)
	<-polled

	if n := c.CounterValue("n"); n != workers*per {
		t.Fatalf("counter = %v, want %d", n, workers*per)
	}
	s := c.Snapshot()
	spans, busy := 0, 0.0
	for _, ts := range s.Tracks {
		spans += ts.Spans
		busy += ts.BusySeconds
	}
	if spans != workers*per || busy != workers*per*0.5 {
		t.Fatalf("tracks hold %d spans and %v busy seconds, want %d and %v", spans, busy, workers*per, workers*per*0.5)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != per-1 {
		t.Fatalf("gauges %+v, want g at its last sample %d", s.Gauges, per-1)
	}
	if n := len(c.Timeline().Series["g"]); n != workers*per {
		t.Fatalf("series g holds %d samples, want %d", n, workers*per)
	}
}

// TestAdvisorEmpty checks the advisor degrades gracefully.
func TestAdvisorEmpty(t *testing.T) {
	a := Advise(NewCollector().Snapshot())
	if len(a.Lines) != 1 || !strings.Contains(a.Lines[0], "no device spans") {
		t.Fatalf("empty-snapshot advice wrong: %+v", a)
	}
}

// TestCollectorIsSimCollector pins the interface contract.
var _ sim.Collector = (*Collector)(nil)
