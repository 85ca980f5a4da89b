// Command pimprof reproduces the paper's profiling outputs: Table I
// (top-5 compute-intensive and memory-intensive operations per model),
// the Fig. 2 operation taxonomy, and — optionally — the Pin-substitute
// instruction trace as JSON lines or an instrumented-run timeline in
// Chrome trace-event JSON (loadable in Perfetto).
//
// Usage:
//
//	pimprof                                  # Table I + Fig. 2
//	pimprof -trace VGG-19                    # dump the instruction trace to stdout
//	pimprof -timeline VGG-19 -config hetero  # Chrome trace JSON to stdout
//	pimprof -timeline VGG-19 -o vgg.trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"heteropim"
	"heteropim/internal/cliutil"
	"heteropim/internal/nn"
	"heteropim/internal/trace"
)

// fail prints the error and exits — the single exit path for every
// pimprof error.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "pimprof: %v\n", err)
	os.Exit(1)
}

// parseModel resolves a model name through the public parser, whose
// unknown-name error lists the valid models.
func parseModel(name string) heteropim.Model {
	model, err := heteropim.ParseModel(name)
	if err != nil {
		fail(err)
	}
	return model
}

// buildModel resolves a model name and builds its graph.
func buildModel(name string) *nn.Graph {
	g, err := nn.Build(parseModel(name))
	if err != nil {
		fail(err)
	}
	return g
}

// output opens the -o target, defaulting to stdout.
func output(path string) io.WriteCloser {
	if path == "" {
		return os.Stdout
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	return f
}

func main() {
	traceModel := flag.String("trace", "", "dump the instruction trace of this model as JSON lines")
	dotModel := flag.String("dot", "", "dump this model's step DAG in Graphviz DOT format")
	timelineModel := flag.String("timeline", "", "run this model instrumented and dump the Chrome trace-event timeline")
	config := flag.String("config", "hetero", "platform for -timeline: cpu|gpu|progr|fixed|hetero")
	out := flag.String("o", "", "write -timeline output to this file instead of stdout")
	loadScenario := cliutil.ScenarioFlag(flag.CommandLine)
	applyCache := cliutil.CacheFlags(flag.CommandLine)
	startProfile := cliutil.ProfileFlags(flag.CommandLine)
	flag.Parse()

	applyCache()
	defer startProfile()()

	// -scenario profiles the scenario's models (distinct, in plan
	// order) through the same three tables the default mode prints.
	if plan, err := loadScenario(); err != nil {
		fail(err)
	} else if plan != nil {
		var models []heteropim.Model
		seen := map[heteropim.Model]bool{}
		for _, c := range plan.Cells {
			if !seen[c.Model] {
				seen[c.Model] = true
				models = append(models, c.Model)
			}
		}
		for _, run := range []func([]heteropim.Model) (*heteropim.Table, error){
			heteropim.ModelSummariesFor, heteropim.TableIFor, heteropim.Fig2ClassesFor} {
			t, err := run(models)
			if err != nil {
				fail(err)
			}
			fmt.Println(t.String())
		}
		st := heteropim.SimulationCacheStats()
		fmt.Printf("simcache: hits=%d misses=%d\n", st.Hits, st.Misses)
		return
	}

	if *dotModel != "" {
		if err := buildModel(*dotModel).WriteDOT(os.Stdout); err != nil {
			fail(err)
		}
		return
	}

	if *traceModel != "" {
		if err := trace.Write(os.Stdout, trace.Generate(buildModel(*traceModel), 0)); err != nil {
			fail(err)
		}
		return
	}

	if *timelineModel != "" {
		kind, err := heteropim.ParseConfig(*config)
		if err != nil {
			fail(err)
		}
		m := heteropim.NewMetrics()
		cell := heteropim.BatchCell{Config: kind, Model: parseModel(*timelineModel)}
		if _, err := heteropim.Simulate(cell, m); err != nil {
			fail(err)
		}
		w := output(*out)
		if err := m.WriteTimeline(w); err != nil {
			fail(err)
		}
		if *out != "" {
			if err := w.Close(); err != nil {
				fail(err)
			}
		}
		return
	}

	for _, run := range []func() (*heteropim.Table, error){heteropim.ModelSummaries, heteropim.TableI, heteropim.Fig2Classes} {
		t, err := run()
		if err != nil {
			fail(err)
		}
		fmt.Println(t.String())
	}
	st := heteropim.SimulationCacheStats()
	fmt.Printf("simcache: hits=%d misses=%d\n", st.Hits, st.Misses)
}
