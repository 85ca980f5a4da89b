package workload

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"heteropim/internal/core"
	"heteropim/internal/fnv1a"
	"heteropim/internal/nn"
)

// memoryCacheOnly turns the result cache on with its disk tier off for
// one test.
func memoryCacheOnly(t *testing.T) {
	prevOn := core.EnableResultCache(true)
	prevDir := core.SetResultCacheDir("")
	t.Cleanup(func() {
		core.EnableResultCache(prevOn)
		core.SetResultCacheDir(prevDir)
	})
}

func named(t *testing.T, m nn.ModelName) nn.Source {
	t.Helper()
	src, err := nn.Named(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func built(t *testing.T, m nn.ModelName) *nn.Graph {
	t.Helper()
	g, err := nn.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func combined(t *testing.T, a, b nn.Source, copies int) nn.Source {
	t.Helper()
	src, err := combineSource(a, b, copies)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// sameContent reports whether two graphs agree on every exported field,
// op for op.
func sameContent(a, b *nn.Graph) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for _, f := range reflect.VisibleFields(va.Type()) {
		if f.IsExported() && !reflect.DeepEqual(va.FieldByIndex(f.Index).Interface(), vb.FieldByIndex(f.Index).Interface()) {
			return false
		}
	}
	return true
}

// A recipe digest covers its tag, every input's digest and every
// parameter; equal recipes give equal digests.
func TestRecipeDigests(t *testing.T) {
	lstm, w2v, alex := named(t, nn.LSTMName), named(t, nn.Word2VecName), named(t, nn.AlexNetName)
	seen := map[fnv1a.Sum128]string{}
	for _, s := range []struct {
		label string
		src   nn.Source
	}{
		{"LSTM", lstm},
		{"AlexNet", alex},
		{"restrict LSTM", restrictSource(lstm)},
		{"restrict Word2vec", restrictSource(w2v)},
		{"scale LSTM by 2", scaleSource(lstm, 2)},
		{"scale LSTM by 3", scaleSource(lstm, 3)},
		{"scale Word2vec by 2", scaleSource(w2v, 2)},
		{"combine AlexNet with 1 LSTM", combined(t, alex, lstm, 1)},
		{"combine AlexNet with 2 LSTM", combined(t, alex, lstm, 2)},
		{"combine AlexNet with 1 Word2vec", combined(t, alex, w2v, 1)},
		{"combine LSTM with 1 AlexNet", combined(t, lstm, alex, 1)},
	} {
		if prev, ok := seen[s.src.Digest()]; ok {
			t.Errorf("%s and %s share a digest", s.label, prev)
		}
		seen[s.src.Digest()] = s.label
	}
	// The tag: its kind and its version are both hashed.
	tagged := func(tag string) fnv1a.Sum128 {
		h := fnv1a.New128()
		h.Str(tag)
		h.Sum128(lstm.Digest())
		return h.Sum()
	}
	if got := restrictSource(lstm).Digest(); got != tagged(recipeTag+"restrict") {
		t.Errorf("restrict digest %v is not the hash of its tag and input", got)
	}
	if tagged(recipeTag+"restrict") == tagged(recipeTag+"scale") ||
		tagged(recipeTag+"restrict") == tagged("heteropim-recipe/0/restrict") {
		t.Error("the recipe tag does not separate digests")
	}
	again := named(t, nn.LSTMName)
	for _, p := range [][2]nn.Source{
		{restrictSource(lstm), restrictSource(again)},
		{scaleSource(lstm, 2.5), scaleSource(again, 2.5)},
		{combined(t, alex, lstm, 3), combined(t, named(t, nn.AlexNetName), again, 3)},
	} {
		if p[0].Digest() != p[1].Digest() {
			t.Errorf("equal recipes hash to %v and %v", p[0].Digest(), p[1].Digest())
		}
	}
}

// A recipe's graph is the eager construction op for op, carries the
// recipe digest, and is built once however often it is asked for.
func TestRecipeGraphsMatchEagerBuilds(t *testing.T) {
	for _, c := range []struct {
		cnn, non nn.ModelName
		k        float64
		copies   int
	}{
		{nn.AlexNetName, nn.LSTMName, 2.5, 1},
		{nn.VGG19Name, nn.Word2VecName, 64.25, 3},
	} {
		r := restrictSource(named(t, c.non))
		s := scaleSource(r, c.k)
		co := combined(t, named(t, c.cnn), s, c.copies)
		eagerR := hostOnly(built(t, c.non))
		eagerS := ScaleGraph(eagerR, c.k)
		eagerC, err := Combine(built(t, c.cnn), eagerS, c.copies)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []struct {
			label string
			src   nn.Source
			eager *nn.Graph
		}{
			{"restrict " + string(c.non), r, eagerR},
			{fmt.Sprintf("scale by %g", c.k), s, eagerS},
			{fmt.Sprintf("combine %s with %d copies", c.cnn, c.copies), co, eagerC},
		} {
			g := p.src.Graph()
			if !sameContent(g, p.eager) {
				t.Errorf("%s: the recipe's graph differs from the eager construction", p.label)
			}
			if g.Digest() != p.src.Digest() {
				t.Errorf("%s: the built graph's digest is not the recipe digest", p.label)
			}
			if p.src.Graph() != g {
				t.Errorf("%s: a second Graph call built again", p.label)
			}
		}
		for _, op := range eagerR.Ops {
			if !op.HostOnly {
				t.Fatalf("restrict %s: op %s is not HostOnly", c.non, op.Name)
			}
		}
	}
}

// The combine recipe refuses a copy count below one when it is made,
// with Combine's error, before anything is built.
func TestCombineSourceRejectsZeroCopies(t *testing.T) {
	builds := 0
	counted := func(m nn.ModelName) nn.Source {
		src := named(t, m)
		return nn.Derive(src.Digest(), func() *nn.Graph {
			builds++
			return built(t, m)
		})
	}
	a, b := counted(nn.AlexNetName), counted(nn.LSTMName)
	for _, copies := range []int{0, -1} {
		src, err := combineSource(a, b, copies)
		_, want := Combine(built(t, nn.AlexNetName), built(t, nn.LSTMName), copies)
		if src != nil || err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("combineSource(%d copies) = %v, %v; Combine's error is %v", copies, src, err, want)
		}
	}
	if builds != 0 {
		t.Errorf("a refused combine recipe built %d graphs", builds)
	}
}

// pinnedTag is the recipeTag the pins below were measured under. A
// recipe digest does not cover its builder's code, so a builder change
// that moves a pin needs a new tag version: bump recipeTag, then
// re-measure the pins and record them here under the new tag.
const pinnedTag = "heteropim-recipe/1/"

// modelPins are the content digests of the named models the recipes
// start from. When a model changes, its recipes' digests change with
// it, so a moved pin here needs re-pinning but no tag bump.
var modelPins = map[nn.ModelName]string{
	nn.VGG19Name:    "f2dabf4acb33d40fcf1f2e68b6b47ead",
	nn.AlexNetName:  "7093617fd1cdae3ddb6ab50d4abb3f92",
	nn.ResNet50Name: "d2ad0b0e13f9cf9d9b48b6a6d75a51ed",
	nn.LSTMName:     "b3523e96054f01654cad4256204319e8",
	nn.Word2VecName: "c5cfab78a1d44fe3211aabdb3c3fbd98",
}

// recipePins are the content digests (Digest of the eager
// construction, which is not seeded) of every graph the six Fig. 16
// cases build from a recipe, at the scale parameters RunMixed derives
// for them.
var recipePins = []struct {
	cnn, non nn.ModelName
	perOp    float64
	copies   int
	restrict string
	scale    string
	combine  string
}{
	{nn.VGG19Name, nn.LSTMName, 40.82737478857433, 1,
		"b139ef8fcaf44ab1bd0e7d82e538eda8",
		"ec9f22f9d4ec53cd0ffa220b13b98252",
		"213c05c8acfaa5423877e9fe0a065019"},
	{nn.VGG19Name, nn.Word2VecName, 64.07463808492366, 145,
		"a4cd21f6f6e0a80188aad5b1ad3ae8f6",
		"aa72ce81d047b0bb39954b6f45d53b5a",
		"db364184d8c19b8ad112a8d6e2f3053a"},
	{nn.AlexNetName, nn.LSTMName, 2.557154983868674, 1,
		"b139ef8fcaf44ab1bd0e7d82e538eda8",
		"d1e81fb82499bf53d97ebeb53cc63f6c",
		"54340ca59a7d4d52603d3328d99b9e8e"},
	{nn.AlexNetName, nn.Word2VecName, 64.65725302149525, 9,
		"a4cd21f6f6e0a80188aad5b1ad3ae8f6",
		"8dbb9bfd1b9c44b87b8262ebb062cff4",
		"24a97ff09da3bc851bd33a7fc19ebabf"},
	{nn.ResNet50Name, nn.LSTMName, 30.702517449420384, 1,
		"b139ef8fcaf44ab1bd0e7d82e538eda8",
		"bb52a46650bf9f6a39bb30c1e335c219",
		"c0e295aadbc573959a23db6ac5856f06"},
	{nn.ResNet50Name, nn.Word2VecName, 64.0988440254044, 109,
		"a4cd21f6f6e0a80188aad5b1ad3ae8f6",
		"5d0c35a362768ddb8abe3131cef1a411",
		"ec98d0fb392b31fdf6b563828cac0ea3"},
}

func hex(d fnv1a.Sum128) string { return fmt.Sprintf("%016x%016x", d.Hi, d.Lo) }

func TestRecipeContentDigestsPinned(t *testing.T) {
	if recipeTag != pinnedTag {
		t.Fatalf("recipeTag is %q but the pins were measured under %q: re-measure them", recipeTag, pinnedTag)
	}
	for m, want := range modelPins {
		if got := hex(built(t, m).Digest()); got != want {
			t.Errorf("model %s: content digest %s, pinned %s; re-pin (no tag bump needed)", m, got, want)
		}
	}
	if t.Failed() {
		return
	}
	for _, p := range recipePins {
		r := hostOnly(built(t, p.non))
		s := ScaleGraph(r, p.perOp)
		c, err := Combine(built(t, p.cnn), s, p.copies)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []struct {
			label     string
			got, want string
		}{
			{"restrict " + string(p.non), hex(r.Digest()), p.restrict},
			{fmt.Sprintf("%s scaled by %v", p.non, p.perOp), hex(s.Digest()), p.scale},
			{fmt.Sprintf("%s + %d x %s", p.cnn, p.copies, p.non), hex(c.Digest()), p.combine},
		} {
			if g.got != g.want {
				t.Errorf("%s: content digest %s, pinned %s; a builder changed, so bump recipeTag's version",
					g.label, g.got, g.want)
			}
		}
	}
}

// TestWarmMixedCaseBuildsNothing: a co-run case whose four cells are
// cached costs four lookups: no graph is built, copied or hashed.
func TestWarmMixedCaseBuildsNothing(t *testing.T) {
	memoryCacheOnly(t)
	for _, c := range MixedCases() {
		first, err := RunMixed(c)
		if err != nil {
			t.Fatal(err)
		}
		before := core.ResultCacheStats()
		again, err := RunMixed(c)
		if err != nil {
			t.Fatal(err)
		}
		after := core.ResultCacheStats()
		if again != first {
			t.Errorf("%s: warm result %+v differs from the first %+v", c.Name(), again, first)
		}
		if after.Hits != before.Hits+4 || after.Misses != before.Misses {
			t.Errorf("%s: a warm case moved the cache stats %+v -> %+v, want exactly 4 hits", c.Name(), before, after)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := RunMixed(c); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 20 {
			t.Errorf("%s: a warm case allocates %.0f times, want at most 20 (no graph build)", c.Name(), allocs)
		}
	}
}

// TestConcurrentRunAllMixed runs Fig. 16 from 4 goroutines on cold
// caches: they race on the recipe sources' cells, the digest memo and
// the profile cache, and must all get the sequential result.
func TestConcurrentRunAllMixed(t *testing.T) {
	memoryCacheOnly(t)
	want, err := RunAllMixed()
	if err != nil {
		t.Fatal(err)
	}
	core.ResetResultCache()
	core.ResetProfileCache()
	got := make([][]MixedResult, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = RunAllMixed()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("goroutine %d: %+v, want %+v", i, got[i], want)
		}
	}
}
