package heteropim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"heteropim/internal/metrics"
)

// TestRunInstrumentedTimelineSchema is the acceptance test for the
// `pimprof -timeline VGG-19 -config hetero` path: the instrumented
// hetero VGG-19 Simulate must emit Chrome trace-event JSON that round-trips
// through the schema (valid JSON, X/C/M phases only, named lanes,
// non-negative timestamps) — and the Result must be bit-identical to
// the uninstrumented run.
func TestRunInstrumentedTimelineSchema(t *testing.T) {
	plain, err := Run(ConfigHeteroPIM, VGG19)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	res, err := Simulate(BatchCell{Config: ConfigHeteroPIM, Model: VGG19}, m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, res) {
		t.Fatalf("instrumented result differs from plain:\n%+v\nvs\n%+v", plain, res)
	}

	var buf bytes.Buffer
	if err := m.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	var ct metrics.ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if err := ct.Validate(); err != nil {
		t.Fatalf("timeline fails schema validation: %v", err)
	}
	var spans, counters int
	for _, ev := range ct.TraceEvents {
		switch ev.Phase {
		case "X":
			spans++
		case "C":
			counters++
		}
	}
	if spans == 0 || counters == 0 {
		t.Fatalf("timeline too thin: %d spans, %d counter events", spans, counters)
	}
}

// TestMetricsJSONAndAdvice checks the machine-readable dump and the
// advisor reading of an instrumented run.
func TestMetricsJSONAndAdvice(t *testing.T) {
	m := NewMetrics()
	if _, err := Simulate(BatchCell{Config: ConfigHeteroPIM, Model: AlexNet}, m); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Makespan float64 `json:"makespan"`
		Tracks   []struct {
			Track string `json:"track"`
		} `json:"tracks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics dump is not valid JSON: %v", err)
	}
	if snap.Makespan <= 0 || len(snap.Tracks) == 0 {
		t.Fatalf("metrics dump incomplete: %+v", snap)
	}
	advice := m.Advice()
	for _, want := range []string{"bottleneck", "underutilized"} {
		if !strings.Contains(advice, want) {
			t.Fatalf("advice missing %q:\n%s", want, advice)
		}
	}
}

// TestParseModel pins the case-insensitive model lookup and its error
// text (the CLIs and the serving daemon both lean on it).
func TestParseModel(t *testing.T) {
	for name, want := range map[string]Model{
		"VGG-19": VGG19, "vgg-19": VGG19, "alexnet": AlexNet,
		"ResNet-50": ResNet50, "WORD2VEC": Word2Vec,
	} {
		got, err := ParseModel(name)
		if err != nil || got != want {
			t.Fatalf("ParseModel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := ParseModel("GPT-2")
	if err == nil || !strings.Contains(err.Error(), "VGG-19") {
		t.Fatalf("unknown model error must list valid names, got: %v", err)
	}
	names := ModelNames()
	if len(names) != 7 || !sort.StringsAreSorted(names) {
		t.Fatalf("ModelNames() = %v, want 7 sorted names", names)
	}
}

// TestRunObserved checks the caller-supplied-Metrics path of Simulate:
// the Result matches the plain run bit-for-bit and the collector saw
// events.
func TestRunObserved(t *testing.T) {
	plain, err := Run(ConfigHeteroPIM, AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	if m.CounterValue("sim.events") != 0 {
		t.Fatal("fresh Metrics must start empty")
	}
	res, err := Simulate(BatchCell{Config: ConfigHeteroPIM, Model: AlexNet, FreqScale: 1}, m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, res) {
		t.Fatalf("observed result differs from plain:\n%+v\nvs\n%+v", plain, res)
	}
	if m.CounterValue("sim.events") == 0 {
		t.Fatal("the instrumented Simulate recorded no engine events")
	}
}

// TestSimulateInstrumentsEveryCellKind: Simulate with a Metrics records
// every kind of cell — batch size, frequency, variant, processors,
// multi-stack and the serial CPU path — and the Result is bit-identical
// to the uninstrumented run. The recorded run is the cell's own: a
// batch-16 run has another makespan than the paper batch, and a 2-stack
// run's all-reduce shows on the link track.
func TestSimulateInstrumentsEveryCellKind(t *testing.T) {
	cells := []BatchCell{
		{Config: ConfigHeteroPIM, Model: AlexNet},
		{Config: ConfigHeteroPIM, Model: AlexNet, BatchSize: 16, FreqScale: 2},
		{Config: ConfigHeteroPIM, Model: AlexNet, Stacks: 2},
		{Model: AlexNet, Variant: &Variant{RecursiveKernels: true}},
		{Model: AlexNet, Processors: 4},
		{Config: ConfigCPU, Model: AlexNet, BatchSize: 16},
	}
	snaps := make([]metrics.Snapshot, len(cells))
	for i, c := range cells {
		plain, err := Simulate(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMetrics()
		res, err := Simulate(c, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, res) {
			t.Errorf("%+v: instrumented result differs from plain", c)
		}
		snaps[i] = m.c.Snapshot()
		if snaps[i].Makespan <= 0 || len(snaps[i].Tracks) == 0 {
			t.Errorf("%+v: nothing recorded", c)
		}
	}
	if snaps[1].Makespan == snaps[0].Makespan {
		t.Errorf("batch-16 run recorded the paper batch's makespan %g", snaps[0].Makespan)
	}
	link := 0.0
	for _, tr := range snaps[2].Tracks {
		if tr.Track == "link" {
			link = tr.BusySeconds
		}
	}
	if link <= 0 {
		t.Errorf("2-stack run: link track busy %g, want > 0", link)
	}
}

// TestSimulateRejectsBatchSizeWithVariantOrProcessors: the variant and
// processor studies run at the paper batch size.
func TestSimulateRejectsBatchSizeWithVariantOrProcessors(t *testing.T) {
	for _, c := range []BatchCell{
		{Model: AlexNet, BatchSize: 16, Variant: &Variant{}},
		{Model: AlexNet, BatchSize: 16, Processors: 4},
	} {
		if _, err := Simulate(c, nil); err == nil {
			t.Errorf("Simulate accepted %+v", c)
		}
		if _, err := Simulate(c, NewMetrics()); err == nil {
			t.Errorf("instrumented Simulate accepted %+v", c)
		}
	}
}

// TestParseConfig pins the flag-name mapping and its error text.
func TestParseConfig(t *testing.T) {
	for name, want := range map[string]Config{
		"cpu": ConfigCPU, "GPU": ConfigGPU, "progr": ConfigProgrPIM,
		"fixed": ConfigFixedPIM, "Hetero": ConfigHeteroPIM,
	} {
		got, err := ParseConfig(name)
		if err != nil || got != want {
			t.Fatalf("ParseConfig(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := ParseConfig("tpu")
	if err == nil || !strings.Contains(err.Error(), "hetero") {
		t.Fatalf("unknown config error must list valid names, got: %v", err)
	}
	if got := ConfigNames(); len(got) != 5 {
		t.Fatalf("ConfigNames() = %v, want 5 names", got)
	}
}
