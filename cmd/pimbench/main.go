// Command pimbench regenerates every table and figure of the paper's
// evaluation (Table I and Figs. 2, 8-17) and prints them in paper
// order. Individual experiments can be selected by id.
//
// Usage:
//
//	pimbench              # everything
//	pimbench -only F8,F9  # just those artifacts
//	pimbench -list
//
// Speed is measured by the repository's benchmark (bash bench/run.sh),
// as medians over repeated runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"heteropim"
	"heteropim/internal/cliutil"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (e.g. T1,F8)")
	ext := flag.Bool("ext", false, "include the extension studies (E1, E2, E3)")
	asCSV := flag.Bool("csv", false, "emit tables as CSV instead of text")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	loadScenario := cliutil.ScenarioFlag(flag.CommandLine)
	applyCache := cliutil.CacheFlags(flag.CommandLine)
	startProfile := cliutil.ProfileFlags(flag.CommandLine)
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()

	heteropim.SetParallelism(*workers)
	applyCache()
	defer startProfile()()

	// -scenario runs a compiled scenario plan instead of the paper's
	// experiment list: as sweep CSV with -csv (byte-identical to
	// pimsweep -scenario on the same file), or as a text table.
	if plan, err := loadScenario(); err != nil {
		fmt.Fprintf(os.Stderr, "pimbench: %v\n", err)
		os.Exit(1)
	} else if plan != nil {
		if err := runScenario(plan, *asCSV); err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: %v\n", err)
			os.Exit(1)
		}
		st := heteropim.SimulationCacheStats()
		fmt.Fprintf(os.Stderr, "simcache: hits=%d misses=%d\n", st.Hits, st.Misses)
		return
	}

	experiments := heteropim.Experiments()
	if *ext || *only != "" {
		experiments = append(experiments, heteropim.ExtensionExperiments()...)
	}
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	failed := false
	for _, e := range experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		t, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: %s: %v\n", e.ID, err)
			failed = true
			continue
		}
		if *asCSV {
			fmt.Printf("# %s %s\n", e.ID, e.Title)
			if err := t.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "pimbench: %s: %v\n", e.ID, err)
				failed = true
			}
			continue
		}
		fmt.Printf("[%s] %s (%.1fs)\n", e.ID, e.Title, time.Since(start).Seconds())
		fmt.Println(t.String())
	}
	if failed {
		os.Exit(1)
	}
	// Stats go to stderr so table output stays diff-stable.
	st := heteropim.SimulationCacheStats()
	fmt.Fprintf(os.Stderr, "simcache: hits=%d misses=%d\n", st.Hits, st.Misses)
}
