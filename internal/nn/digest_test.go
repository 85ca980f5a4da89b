package nn

import (
	"reflect"
	"sync"
	"testing"

	"heteropim/internal/fnv1a"
)

// digestBatches are the batch sizes the digest tests build each model
// at: the paper's, and two others for the models that take any batch.
func digestBatches(name ModelName) []int {
	switch name {
	case LSTMName, Word2VecName:
		return []int{DefaultBatch(name)}
	}
	return []int{DefaultBatch(name), 8, 48}
}

func memoHas(name ModelName, batch int) bool {
	digestMu.Lock()
	defer digestMu.Unlock()
	_, ok := digestMemo[modelKey{name, batch}]
	return ok
}

// Two independent builds of a model hash alike, and the memo serves
// that same digest.
func TestDigestStableAcrossBuilds(t *testing.T) {
	ResetModelDigests()
	for _, name := range AllModelNames() {
		for _, b := range digestBatches(name) {
			g1, err := BuildWithBatch(name, b)
			if err != nil {
				t.Fatal(err)
			}
			g2, err := BuildWithBatch(name, b)
			if err != nil {
				t.Fatal(err)
			}
			if g1.Digest() != g2.Digest() {
				t.Errorf("%s at batch %d: two builds hash differently", name, b)
			}
			d, built, err := ModelDigest(name, b)
			if err != nil {
				t.Fatal(err)
			}
			if d != g1.Digest() || built == nil || built.Digest() != d {
				t.Errorf("%s at batch %d: memo miss gave %v and graph %p, want %v and the graph it built",
					name, b, d, built, g1.Digest())
			}
			if d, built, _ := ModelDigest(name, b); d != g1.Digest() || built != nil {
				t.Errorf("%s at batch %d: memo hit gave %v and graph %p, want %v and no graph",
					name, b, d, built, g1.Digest())
			}
		}
	}
	// Batch 0 is the paper's batch, in the memo as in BuildWithBatch.
	if d, g, _ := ModelDigest(AlexNetName, 0); g != nil || d != mustBuild(t, AlexNetName, 32).Digest() {
		t.Errorf("AlexNet batch 0 is not the memoized paper batch")
	}
}

func mustBuild(t *testing.T, name ModelName, batch int) *Graph {
	t.Helper()
	g, err := BuildWithBatch(name, batch)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Changing any one field the digest covers changes the digest. The
// exported fields of Graph and Op are enumerated by reflection, so a
// field added to either type fails here until Digest hashes it.
func TestDigestCoversEveryField(t *testing.T) {
	base := mustBuild(t, AlexNetName, 32).Digest()
	// The op whose fields are perturbed: one with both in-step inputs
	// and cross-step edges.
	pick := func(g *Graph) *Op {
		for _, op := range g.Ops {
			if len(op.Inputs) > 0 && len(op.CrossStep) > 0 {
				return op
			}
		}
		t.Fatal("AlexNet has no op with inputs and cross-step edges")
		return nil
	}
	check := func(label string, mutate func(g *Graph)) {
		g := mustBuild(t, AlexNetName, 32)
		mutate(g)
		if g.Digest() == base {
			t.Errorf("changing %s left the digest unchanged", label)
		}
	}
	perturb := func(v reflect.Value) bool {
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float()*2 + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			return false
		}
		return true
	}
	for _, f := range reflect.VisibleFields(reflect.TypeFor[Graph]()) {
		if !f.IsExported() {
			continue
		}
		if f.Name == "Ops" {
			check("Graph.Ops (one op fewer)", func(g *Graph) { g.Ops = g.Ops[:len(g.Ops)-1] })
			continue
		}
		check("Graph."+f.Name, func(g *Graph) {
			if !perturb(reflect.ValueOf(g).Elem().FieldByIndex(f.Index)) {
				t.Fatalf("Graph.%s: no perturbation for kind %v", f.Name, f.Type.Kind())
			}
		})
	}
	for _, f := range reflect.VisibleFields(reflect.TypeFor[Op]()) {
		switch f.Name {
		case "Inputs":
			check("one Op.Inputs entry", func(g *Graph) { pick(g).Inputs[0]++ })
			continue
		case "CrossStep":
			check("one Op.CrossStep entry", func(g *Graph) { pick(g).CrossStep[0]++ })
			continue
		}
		check("Op."+f.Name, func(g *Graph) {
			if !perturb(reflect.ValueOf(pick(g)).Elem().FieldByIndex(f.Index)) {
				t.Fatalf("Op.%s: no perturbation for kind %v", f.Name, f.Type.Kind())
			}
		})
	}
}

// A model or batch BuildWithBatch rejects is an error from ModelDigest
// and Named alike, and leaves nothing in the memo.
func TestModelDigestRejects(t *testing.T) {
	for _, tc := range []struct {
		name  ModelName
		batch int
	}{
		{"NoSuchNet", 0},
		{"NoSuchNet", 32},
		{LSTMName, 64},
		{Word2VecName, 32},
	} {
		if _, g, err := ModelDigest(tc.name, tc.batch); err == nil || g != nil {
			t.Errorf("ModelDigest(%q, %d) = graph %p, err %v, want an error", tc.name, tc.batch, g, err)
		}
		if _, err := Named(tc.name, tc.batch); err == nil {
			t.Errorf("Named(%q, %d) accepted", tc.name, tc.batch)
		}
		if memoHas(tc.name, tc.batch) {
			t.Errorf("rejected (%q, %d) left a memo entry", tc.name, tc.batch)
		}
	}
}

// A Named source hands out the graph ModelDigest built on a memo miss,
// and builds one only when asked for it after a hit.
func TestNamedBuildsOnlyOnDemand(t *testing.T) {
	ResetModelDigests()
	want := mustBuild(t, DCGANName, 16).Digest()
	miss, err := Named(DCGANName, 16)
	if err != nil {
		t.Fatal(err)
	}
	if miss.(*named).g == nil {
		t.Error("a memo miss did not keep the graph it built")
	}
	hit, err := Named(DCGANName, 16)
	if err != nil {
		t.Fatal(err)
	}
	if hit.(*named).g != nil {
		t.Error("a memo hit built a graph")
	}
	if hit.Digest() != want || miss.Digest() != want {
		t.Errorf("Named digests %v and %v, want %v", miss.Digest(), hit.Digest(), want)
	}
	g := hit.Graph()
	if g == nil || g.Digest() != want || hit.Graph() != g {
		t.Error("Graph on a memo hit did not build the model once")
	}
	if gg := g.Graph(); gg != g {
		t.Error("a *Graph's Graph is not itself")
	}
}

// Digest and the memo are reached from many runner workers at once.
func TestConcurrentDigest(t *testing.T) {
	ResetModelDigests()
	g := mustBuild(t, VGG19Name, 32)
	want := mustBuild(t, VGG19Name, 32).Digest()
	const n = 8
	got := make([]fnv1a.Sum128, n)
	memo := make([]fnv1a.Sum128, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = g.Digest()
			memo[i], _, _ = ModelDigest(VGG19Name, 32)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if got[i] != want || memo[i] != want {
			t.Errorf("goroutine %d: Digest %v, ModelDigest %v, want %v", i, got[i], memo[i], want)
		}
	}
}

// A Derive source answers Digest without building, runs build once
// however often Graph is called, and seeds the built graph with the
// recipe digest instead of hashing it.
func TestDeriveBuildsOnceAndSeedsDigest(t *testing.T) {
	d := fnv1a.Sum128{Hi: 1, Lo: 2}
	builds := 0
	src := Derive(d, func() *Graph {
		builds++
		return mustBuild(t, AlexNetName, 32)
	})
	if src.Digest() != d || builds != 0 {
		t.Fatalf("Digest gave %v after %d builds, want %v and none", src.Digest(), builds, d)
	}
	g := src.Graph()
	for i := 0; i < 3; i++ {
		if src.Graph() != g {
			t.Fatal("Graph returned a different graph")
		}
	}
	if builds != 1 {
		t.Errorf("build ran %d times, want once", builds)
	}
	if g.Digest() != d {
		t.Errorf("the built graph's digest is %v, want the recipe digest %v", g.Digest(), d)
	}
	if g.hash() != mustBuild(t, AlexNetName, 32).Digest() {
		t.Error("seeding the digest changed the graph")
	}
}

// A sweep hands one Named source to every cell of a model, and runner
// workers call Graph on it at once: they all get the one graph it built.
func TestConcurrentNamedSharedGraph(t *testing.T) {
	if _, err := Named(AlexNetName, 0); err != nil { // fill the memo: the next source builds on demand
		t.Fatal(err)
	}
	src, err := Named(AlexNetName, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := Builds()
	const n = 8
	got := make([]*Graph, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = src.Graph()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g == nil || g != got[0] {
			t.Errorf("goroutine %d got graph %p, goroutine 0 got %p", i, g, got[0])
		}
	}
	if b := Builds() - before; b != 1 {
		t.Errorf("%d concurrent Graph calls built %d graphs, want 1", n, b)
	}
	if got[0].Digest() != src.Digest() {
		t.Error("the shared graph's digest is not its source's")
	}
}

// ShareNamed hands every element of one (model, normalized batch) the
// same source, whose digest its first user resolves; workers that use
// the shared source at once build one graph per pair. Another batch gets
// a source of its own, and an element Named refuses gets none.
func TestConcurrentShareNamed(t *testing.T) {
	ResetModelDigests()
	type key struct {
		name  ModelName
		batch int
	}
	const n = 8
	keys := make([]key, 0, n+3)
	for i := 0; i < n; i++ {
		keys = append(keys, key{VGG19Name, 32 * (i % 2)}) // 0 and 32 are both VGG-19's paper batch
	}
	keys = append(keys, key{VGG19Name, 16}, key{"NoSuchNet", 0}, key{LSTMName, 5})
	srcs := ShareNamed(len(keys), func(i int) (ModelName, int) { return keys[i].name, keys[i].batch })
	before := Builds()
	graphs := make([]*Graph, n)
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			graphs[i] = srcs[i].Graph()
		}(i)
	}
	wg.Wait()
	for i := range graphs {
		if srcs[i] != srcs[0] || graphs[i] != graphs[0] {
			t.Errorf("element %d got source %p and graph %p, element 0 got %p and %p",
				i, srcs[i], graphs[i], srcs[0], graphs[0])
		}
	}
	if b := Builds() - before; b != 1 {
		t.Errorf("a memo miss shared by %d elements built %d graphs, want 1", n, b)
	}
	if want := mustBuild(t, VGG19Name, 32).Digest(); srcs[0].Digest() != want {
		t.Errorf("shared source digest %v, want %v", srcs[0].Digest(), want)
	}
	if srcs[n] == nil || srcs[n] == srcs[0] {
		t.Errorf("batch 16 got source %v, want one of its own", srcs[n])
	}
	if want := mustBuild(t, VGG19Name, 16).Digest(); srcs[n] != nil && srcs[n].Digest() != want {
		t.Errorf("batch-16 source digest %v, want %v", srcs[n].Digest(), want)
	}
	for _, i := range []int{n + 1, n + 2} {
		if srcs[i] != nil {
			t.Errorf("ShareNamed gave %q at batch %d a source", keys[i].name, keys[i].batch)
		}
	}
}

// Runs that share a Derive source race to its first Graph call; build
// still runs once.
func TestConcurrentDeriveBuildsOnce(t *testing.T) {
	var calls sync.Map
	src := Derive(fnv1a.Sum128{Hi: 3, Lo: 4}, func() *Graph {
		g := mustBuild(t, AlexNetName, 32)
		calls.Store(g, true)
		return g
	})
	const n = 8
	got := make([]*Graph, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = src.Graph()
		}(i)
	}
	wg.Wait()
	built := 0
	calls.Range(func(_, _ any) bool { built++; return true })
	if built != 1 {
		t.Errorf("build ran %d times, want once", built)
	}
	for i, g := range got {
		if g != got[0] {
			t.Errorf("goroutine %d got graph %p, goroutine 0 got %p", i, g, got[0])
		}
	}
}
