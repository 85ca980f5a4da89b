package core

import (
	"fmt"
	"strings"
	"testing"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
	"heteropim/internal/sim"
)

// spanKey identifies one open span; a TaskEnd must name exactly the
// span its TaskStart opened.
type spanKey struct {
	track, name, kind string
	step              int
	start             hw.Seconds
}

// oracle is a checking sim.Collector: attached to a PIM run, it asserts
// the simulator's invariants while the run happens, event by event.
//
//   - Emitted timestamps (span starts and ends, samples) never decrease.
//     A multi-stack run's link spans come from allReduceStep's phase
//     loop, whose clock starts again at 0, so they are checked as a
//     timeline of their own.
//   - Every TaskEnd closes an open TaskStart on its track with the same
//     name, kind, step and Start, so the operands a task keeps for its
//     pending event (the span start among them) survive until the event
//     fires; at the end no span is left open.
//   - Every op and section span ends after it starts: an op's duration
//     includes a positive dispatch or launch overhead, and a section
//     runs a chunk of positive work.
//   - fixed.busy_units stays within [0, Units].
//   - Concurrent spans on the host track (cpu or gpu) never exceed its
//     2 slots, and on prog never exceed the P processors.
//   - No HostOnly op opens a span on the fixed-function pool (fixed)
//     or a residual phase (residual.*), which only offloaded ops run.
type oracle struct {
	t     testing.TB
	label string
	units int
	slots map[string]int // per-track span limit
	// hostOnly holds the names of the run's HostOnly ops. Spans name
	// their op, so the check is by name, which is unique only within
	// one built model (see hostOnlyNames).
	hostOnly map[string]bool
	// last holds the latest emission time per timeline (timelineOf).
	last  [2]hw.Seconds
	open  map[spanKey]int
	live  map[string]int // open spans per track
	spans int
	fails int
}

// newOracle builds the checker for one run on cfg.
func newOracle(t testing.TB, label string, cfg hw.SystemConfig) *oracle {
	return &oracle{
		t:     t,
		label: label,
		units: cfg.FixedPIM.Units,
		slots: map[string]int{"cpu": 2, "gpu": 2, "prog": cfg.ProgPIM.Processors},
		open:  map[spanKey]int{},
		live:  map[string]int{},
	}
}

// fail reports one violation; a broken run stops reporting after a few.
func (o *oracle) fail(format string, args ...any) {
	if o.fails++; o.fails <= 5 {
		o.t.Errorf("%s: %s", o.label, fmt.Sprintf(format, args...))
	}
}

// timelineOf returns the clock a track's emissions are ordered on: 1
// for the all-reduce's link spans, 0 for everything the stack's own
// engine emits.
func timelineOf(track string) int {
	if track == "link" {
		return 1
	}
	return 0
}

// at checks that time has not gone backwards on a timeline.
func (o *oracle) at(what string, timeline int, t hw.Seconds) {
	if last := o.last[timeline]; t < last {
		o.fail("%s at %.12g, after an emission at %.12g", what, t, last)
	}
	o.last[timeline] = t
}

func (o *oracle) TaskStart(s sim.Task) {
	o.at("span start "+s.Track+"/"+s.Name, timelineOf(s.Track), s.Start)
	if o.hostOnly[s.Name] && (s.Track == "fixed" || strings.HasPrefix(s.Track, "residual.")) {
		o.fail("host-only op %s opened a %s span on %s", s.Name, s.Kind, s.Track)
	}
	o.open[spanKey{s.Track, s.Name, s.Kind, s.Step, s.Start}]++
	o.live[s.Track]++
	o.spans++
	if n, ok := o.slots[s.Track]; ok && o.live[s.Track] > n {
		o.fail("%d concurrent spans on %s, which has %d slots", o.live[s.Track], s.Track, n)
	}
}

func (o *oracle) TaskEnd(s sim.Task) {
	o.at("span end "+s.Track+"/"+s.Name, timelineOf(s.Track), s.End)
	if (s.Kind == "op" || s.Kind == "section") && s.End <= s.Start {
		o.fail("%s span %s/%s ends at %.12g, not after its start %.12g", s.Kind, s.Track, s.Name, s.End, s.Start)
	}
	k := spanKey{s.Track, s.Name, s.Kind, s.Step, s.Start}
	if o.open[k] == 0 {
		o.fail("span end %+v closes no open span", s)
		return
	}
	if o.open[k]--; o.open[k] == 0 {
		delete(o.open, k)
	}
	o.live[s.Track]--
}

func (o *oracle) Sample(name string, at hw.Seconds, v float64) {
	o.at("sample "+name, 0, at)
	if name == "fixed.busy_units" && (v < 0 || v > float64(o.units)) {
		o.fail("fixed.busy_units %g outside [0, %d]", v, o.units)
	}
}

func (o *oracle) Count(string, float64) {}

// done checks that the finished run emitted spans and left none open.
func (o *oracle) done() {
	if o.spans == 0 {
		o.fail("the run emitted no spans")
	}
	for k, n := range o.open {
		o.fail("%d span(s) %+v never ended", n, k)
	}
}

// hostOnlyNames returns the names of g's HostOnly ops. A name that
// g also gives an op that is not HostOnly would make the by-name check
// ambiguous: a merged co-run graph repeats framework_* names across its
// two models. So g must be one built model, or names must not clash.
func hostOnlyNames(t testing.TB, g *nn.Graph) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for _, op := range g.Ops {
		if op.HostOnly {
			names[op.Name] = true
		}
	}
	for _, op := range g.Ops {
		if !op.HostOnly && names[op.Name] {
			t.Fatalf("%s: op name %s is both host-only and not; the oracle checks placement by name", g.Model, op.Name)
		}
	}
	return names
}

// runChecked runs (g, cfg, opts) with an oracle attached.
func runChecked(t testing.TB, label string, g *nn.Graph, cfg hw.SystemConfig, opts Options) Result {
	t.Helper()
	o := newOracle(t, label, cfg)
	o.hostOnly = hostOnlyNames(t, g)
	opts.Collector = o
	r, err := RunPIM(g, cfg, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	o.done()
	return r
}

// TestOracleHostOnly attaches the oracle to runs with HostOnly ops:
// AlexNet and DCGAN with every other op HostOnly, and LSTM with every
// op HostOnly (the Section VI-F non-CNN placement), with RC and OP
// switched on and off. No HostOnly op may reach the fixed-function pool.
func TestOracleHostOnly(t *testing.T) {
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	for _, c := range []struct {
		name  nn.ModelName
		every int
	}{{nn.AlexNetName, 2}, {nn.DCGANName, 2}, {nn.LSTMName, 1}} {
		g, err := nn.Build(c.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range g.Ops {
			op.HostOnly = op.ID%c.every == c.every-1
		}
		for _, rc := range []bool{false, true} {
			for _, op := range []bool{false, true} {
				opts := HeteroOptions()
				opts.RC, opts.OP = rc, op
				runChecked(t, fmt.Sprintf("%s, 1 op in %d host-only, RC=%t OP=%t", c.name, c.every, rc, op), g, cfg, opts)
			}
		}
	}
}

// TestOracleCatchesBrokenRuns feeds the oracle emissions that break each
// invariant, so a checker that accepts everything cannot pass.
func TestOracleCatchesBrokenRuns(t *testing.T) {
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	for _, c := range []struct {
		name string
		emit func(o *oracle)
	}{
		{"time goes back", func(o *oracle) {
			o.Sample("queue.cpu", 2, 0)
			o.Sample("queue.cpu", 1, 0)
		}},
		{"link time goes back", func(o *oracle) {
			o.TaskStart(sim.Task{Track: "link", Name: "a", Kind: "allreduce", Start: 2})
			o.TaskEnd(sim.Task{Track: "link", Name: "a", Kind: "allreduce", Start: 2, End: 3})
			o.TaskStart(sim.Task{Track: "link", Name: "b", Kind: "allreduce", Start: 1})
			o.TaskEnd(sim.Task{Track: "link", Name: "b", Kind: "allreduce", Start: 1, End: 3})
		}},
		{"op span of zero length", func(o *oracle) {
			o.TaskStart(sim.Task{Track: "cpu", Name: "a", Kind: "op", Start: 1})
			o.TaskEnd(sim.Task{Track: "cpu", Name: "a", Kind: "op", Start: 1, End: 1})
		}},
		{"section span of zero length", func(o *oracle) {
			o.TaskStart(sim.Task{Track: "fixed", Name: "a", Kind: "section", Start: 1})
			o.TaskEnd(sim.Task{Track: "fixed", Name: "a", Kind: "section", Start: 1, End: 1})
		}},
		{"end without start", func(o *oracle) {
			o.TaskEnd(sim.Task{Track: "cpu", Name: "a", Kind: "op", Start: 0, End: 1})
		}},
		{"end with another start", func(o *oracle) {
			o.TaskStart(sim.Task{Track: "fixed", Name: "a", Kind: "section", Step: 1, Start: 1})
			o.TaskEnd(sim.Task{Track: "fixed", Name: "a", Kind: "section", Step: 1, Start: 0.5, End: 2})
		}},
		{"span left open", func(o *oracle) {
			o.TaskStart(sim.Task{Track: "prog", Name: "a", Kind: "op", Start: 1})
		}},
		{"pool over-granted", func(o *oracle) {
			o.Sample("fixed.busy_units", 0, float64(cfg.FixedPIM.Units+1))
		}},
		{"third host span", func(o *oracle) {
			for _, n := range []string{"a", "b", "c"} {
				o.TaskStart(sim.Task{Track: "cpu", Name: n, Kind: "op"})
			}
		}},
		{"host-only op on the pool", func(o *oracle) {
			o.hostOnly = map[string]bool{"a": true}
			o.TaskStart(sim.Task{Track: "fixed", Name: "a", Kind: "section"})
			o.TaskEnd(sim.Task{Track: "fixed", Name: "a", Kind: "section", End: 1})
		}},
		{"host-only op in a residual phase", func(o *oracle) {
			o.hostOnly = map[string]bool{"a": true}
			o.TaskStart(sim.Task{Track: "residual.cpu", Name: "a", Kind: "residual"})
			o.TaskEnd(sim.Task{Track: "residual.cpu", Name: "a", Kind: "residual", End: 1})
		}},
	} {
		rec := &recordingTB{TB: t}
		o := newOracle(rec, c.name, cfg)
		c.emit(o)
		o.done()
		if rec.errors == 0 {
			t.Errorf("%s: the oracle reported nothing", c.name)
		}
	}
}

// recordingTB counts Errorf calls instead of failing the test.
type recordingTB struct {
	testing.TB
	errors int
}

func (r *recordingTB) Errorf(string, ...any) { r.errors++ }
