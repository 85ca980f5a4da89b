package core

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

func TestProfileStepCoversEveryOp(t *testing.T) {
	g := nn.VGG19()
	prof := ProfileStep(g, hw.PaperCPU())
	if len(prof.Entries) != len(g.Ops) {
		t.Fatalf("%d entries for %d ops", len(prof.Entries), len(g.Ops))
	}
	var sumT hw.Seconds
	var sumA float64
	for _, e := range prof.Entries {
		if e.Time < 0 || e.MemAccesses < 0 {
			t.Fatalf("negative profile entry: %+v", e)
		}
		sumT += e.Time
		sumA += e.MemAccesses
	}
	if math.Abs(sumT-prof.TotalTime) > 1e-9*sumT {
		t.Fatalf("total time %g != sum %g", prof.TotalTime, sumT)
	}
	if math.Abs(sumA-prof.TotalAccesses) > 1e-6 {
		t.Fatalf("total accesses %g != sum %g", prof.TotalAccesses, sumA)
	}
}

func TestSelectCandidatesCoversXPercent(t *testing.T) {
	g := nn.VGG19()
	prof := ProfileStep(g, hw.PaperCPU())
	cand := SelectCandidates(prof, 90)
	var covered hw.Seconds
	for _, e := range prof.Entries {
		if cand[e.OpID] {
			covered += e.Time
		}
	}
	frac := covered / prof.TotalTime
	if frac < 0.90 {
		t.Fatalf("candidates cover only %.1f%% of step time", frac*100)
	}
	// The selection must be frugal: dropping the candidate property for
	// ~10% of time means far fewer ops than the whole graph.
	if len(cand) == len(g.Ops) {
		t.Fatal("selection picked every op; the x% threshold did nothing")
	}
}

func TestSelectCandidatesPrefersTimeAndMemoryIntensive(t *testing.T) {
	// Build a synthetic profile: op 0 dominates both time and memory;
	// op 2 is hot in neither.
	prof := StepProfile{
		Entries: []ProfileEntry{
			{OpID: 0, Time: 10, MemAccesses: 1000},
			{OpID: 1, Time: 5, MemAccesses: 2000},
			{OpID: 2, Time: 0.1, MemAccesses: 1},
			{OpID: 3, Time: 4, MemAccesses: 500},
		},
	}
	for _, e := range prof.Entries {
		prof.TotalTime += e.Time
		prof.TotalAccesses += e.MemAccesses
	}
	cand := SelectCandidates(prof, 70)
	if !cand[0] {
		t.Fatal("op 0 (top time, #2 memory) must be selected first")
	}
	if cand[2] {
		t.Fatal("op 2 (cold) must not be selected at 70%")
	}
}

func TestSelectCandidatesDualIndexBeatsPureTime(t *testing.T) {
	// An op with middling time but massive memory outranks an op with
	// slightly more time and no memory traffic — the global (summed)
	// index decides, as in Section III-C.
	prof := StepProfile{
		Entries: []ProfileEntry{
			{OpID: 0, Time: 6, MemAccesses: 0},     // time rank 0, mem rank 2 -> 2
			{OpID: 1, Time: 5, MemAccesses: 10000}, // time rank 1, mem rank 0 -> 1
			{OpID: 2, Time: 1, MemAccesses: 100},   // time rank 2, mem rank 1 -> 3
		},
	}
	for _, e := range prof.Entries {
		prof.TotalTime += e.Time
	}
	// Select just enough for one op (<= 5/12 of time).
	cand := SelectCandidates(prof, 40)
	if !cand[1] || cand[0] {
		t.Fatalf("dual-index rank violated: cand=%v", cand)
	}
}

func TestSelectCandidatesEdgeCases(t *testing.T) {
	if c := SelectCandidates(StepProfile{}, 90); len(c) != 0 {
		t.Fatal("empty profile must select nothing")
	}
	prof := StepProfile{Entries: []ProfileEntry{{OpID: 0, Time: 1}}, TotalTime: 1}
	if c := SelectCandidates(prof, 0); len(c) != 0 {
		t.Fatal("0%% must select nothing")
	}
	if c := SelectCandidates(prof, 150); !c[0] {
		t.Fatal(">100%% clamps to everything")
	}
}

func TestSelectCandidatesMonotoneQuick(t *testing.T) {
	// Property: raising x% never shrinks the candidate set's time
	// coverage.
	g := nn.AlexNet()
	prof := ProfileStep(g, hw.PaperCPU())
	coverage := func(x float64) float64 {
		cand := SelectCandidates(prof, x)
		var c hw.Seconds
		for _, e := range prof.Entries {
			if cand[e.OpID] {
				c += e.Time
			}
		}
		return c
	}
	f := func(a, b uint8) bool {
		lo := float64(a % 101)
		hi := float64(b % 101)
		if lo > hi {
			lo, hi = hi, lo
		}
		return coverage(lo) <= coverage(hi)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAllOpsCandidates: the baselines without runtime selection (Fixed
// PIM, Progr PIM) hold no candidate set, so every op is a candidate,
// and their runs report as many candidates as ops.
func TestAllOpsCandidates(t *testing.T) {
	g := nn.DCGAN()
	for _, kind := range []hw.ConfigKind{hw.ConfigFixedPIM, hw.ConfigProgrPIM} {
		opts, _ := PIMOptionsFor(kind)
		c := &countingCollector{counts: map[string]float64{}}
		opts.Collector = c
		x, err := newExec(g, hw.PaperConfig(kind), opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range g.Ops {
			if x.cand != nil && !x.cand.has(op.ID) {
				t.Fatalf("%v: op %d is not a candidate", kind, op.ID)
			}
		}
		if got := c.counts["sched.candidates"]; got != float64(len(g.Ops)) {
			t.Errorf("%v: %g candidates for %d ops", kind, got, len(g.Ops))
		}
	}
}

// The per-type totals Table I reads equal a per-op recomputation on
// every model, and the Fig. 2 tally beside them is the graph's own. A
// second lookup, through a fresh Named source, is found by the model's
// digest: it builds no graph and returns the totals the first computed.
func TestTypeProfileMatchesPerOp(t *testing.T) {
	ResetProfileCache()
	cpu := hw.PaperCPU()
	for _, name := range nn.AllModelNames() {
		src, err := nn.Named(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		g := src.Graph()
		prof := ProfileStep(g, cpu)
		want := map[nn.OpType]TypeTotal{}
		for _, e := range prof.Entries {
			op := g.Ops[e.OpID]
			w := want[op.Type]
			w.Type = op.Type
			w.Ops++
			w.Time += e.Time
			w.MemAccesses += e.MemAccesses
			want[op.Type] = w
		}
		got := CachedTypeProfile(src, cpu)
		if len(got.Types) != len(want) {
			t.Errorf("%s: %d type totals, want %d", name, len(got.Types), len(want))
		}
		for i, tt := range got.Types {
			if i > 0 && got.Types[i-1].Type >= tt.Type {
				t.Errorf("%s: types out of name order at %q", name, tt.Type)
			}
			if tt != want[tt.Type] {
				t.Errorf("%s %s: totals %+v, per-op %+v", name, tt.Type, tt, want[tt.Type])
			}
		}
		if got.TotalTime != prof.TotalTime || got.TotalAccesses != prof.TotalAccesses {
			t.Errorf("%s: step totals %g s, %g accesses; want %g, %g", name,
				got.TotalTime, got.TotalAccesses, prof.TotalTime, prof.TotalAccesses)
		}
		if c, w := got.Classes, g.ClassCounts(); !reflect.DeepEqual(c, w) {
			t.Errorf("%s: Fig. 2 classes %v, from the graph %v", name, c, w)
		}
		before := nn.Builds()
		warm, err := nn.Named(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if again := CachedTypeProfile(warm, cpu); &again.Types[0] != &got.Types[0] {
			t.Errorf("%s: a warm lookup recomputed the per-type totals", name)
		}
		if b := nn.Builds() - before; b != 0 {
			t.Errorf("%s: a warm lookup built %d graphs", name, b)
		}
	}
}

// TestConcurrentCandidateSets races the candidate sets a profile-cache
// entry holds: goroutines resolve one entry's selection at several
// thresholds at once. Each (entry, threshold) is selected once, every
// goroutine gets that one set, and it equals SelectCandidates's map on
// the profile without HostOnly ops. The second graph pins some ops to
// the host, so its entry's sets must leave them out.
func TestConcurrentCandidateSets(t *testing.T) {
	hostOnly := nn.VGG19()
	for i := 0; i < len(hostOnly.Ops); i += 7 {
		hostOnly.Ops[i].HostOnly = true
	}
	cpu := hw.PaperCPU()
	xs := []float64{30, 60, 90, 100}
	for _, g := range []*nn.Graph{nn.VGG19(), hostOnly} {
		ResetProfileCache()
		before := candidateSelections.Load()
		const goroutines = 8
		got := make([][]*candidateSet, goroutines)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = make([]*candidateSet, len(xs))
				for j := range xs {
					k := (i + j) % len(xs)
					got[i][k] = cachedCandidates(g, cpu, xs[k])
				}
			}()
		}
		wg.Wait()
		if n := candidateSelections.Load() - before; n != int64(len(xs)) {
			t.Errorf("%d goroutines at %d thresholds computed %d selections, want %d", goroutines, len(xs), n, len(xs))
		}
		for k, x := range xs {
			want := SelectCandidates(withoutHostOnly(g, ProfileStep(g, cpu)), x)
			set := got[0][k]
			for i := range got {
				if got[i][k] != set {
					t.Fatalf("x=%g: goroutine %d got its own set", x, i)
				}
			}
			if set.n != len(want) {
				t.Errorf("x=%g: %d candidates, want %d", x, set.n, len(want))
			}
			for _, op := range g.Ops {
				if set.has(op.ID) != want[op.ID] {
					t.Errorf("x=%g: op %d candidate %v, want %v", x, op.ID, set.has(op.ID), want[op.ID])
				}
				if op.HostOnly && set.has(op.ID) {
					t.Errorf("x=%g: host-only op %d selected", x, op.ID)
				}
			}
		}
	}
	ResetProfileCache()
}
