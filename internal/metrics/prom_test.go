package metrics

import (
	"bytes"
	"strings"
	"testing"
)

// TestWritePrometheus pins the exposition format: sanitized names,
// counter/gauge/histogram sections, cumulative buckets ending at +Inf,
// and byte-determinism across identical registries.
func TestWritePrometheus(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Add("serve.requests", 3)
		r.Set("serve.queue_depth", 2)
		r.Observe("http.seconds.post-jobs", 5e-7) // first bucket <= 1e-6
		r.Observe("http.seconds.post-jobs", 0.5)  // bucket <= 1
		r.Observe("http.seconds.post-jobs", 100)  // +Inf bucket
		return r
	}
	var buf bytes.Buffer
	if err := build().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE heteropim_serve_requests counter",
		"heteropim_serve_requests 3",
		"# TYPE heteropim_serve_queue_depth gauge",
		"heteropim_serve_queue_depth 2",
		"# TYPE heteropim_http_seconds_post_jobs histogram",
		`heteropim_http_seconds_post_jobs_bucket{le="1e-06"} 1`,
		`heteropim_http_seconds_post_jobs_bucket{le="1"} 2`,
		`heteropim_http_seconds_post_jobs_bucket{le="+Inf"} 3`,
		"heteropim_http_seconds_post_jobs_sum 100.5",
		"heteropim_http_seconds_post_jobs_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}

	var again bytes.Buffer
	if err := build().Snapshot().WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("identical registries must serialize to identical bytes")
	}
}

// TestPromName pins the name sanitization rules.
func TestPromName(t *testing.T) {
	cases := map[string]string{
		"sim.events":       "heteropim_sim_events",
		"busy_seconds.a:b": "heteropim_busy_seconds_a:b",
		"odd name-9":       "heteropim_odd_name_9",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
