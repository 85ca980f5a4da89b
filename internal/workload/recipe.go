package workload

import (
	"heteropim/internal/fnv1a"
	"heteropim/internal/nn"
)

// Recipe sources address Fig. 16's derived graphs by how they are made
// (nn.Derive): a host-only copy, a scaled copy and a co-run merge of
// nn.Named models. A recipe's digest is a hash of its tag, its inputs'
// digests and its parameters, so RunMixed looks its four cells up
// without building, copying or hashing a graph, and builds one only on
// a miss.

// recipeTag versions every recipe. A recipe digest does not cover its
// builder's code, so an entry under HETEROPIM_CACHE_DIR would outlive a
// change to what hostOnly, ScaleGraph or Combine build and serve a stale
// result. Such a change moves a content digest pinned in
// recipe_test.go: bump the version with it.
const recipeTag = "heteropim-recipe/1/"

// recipe starts a recipe digest: its tag, then its inputs' digests.
func recipe(kind string, inputs ...nn.Source) fnv1a.Hash128 {
	h := fnv1a.New128()
	h.Str(recipeTag + kind)
	for _, in := range inputs {
		h.Sum128(in.Digest())
	}
	return h
}

// restrictSource is the recipe of hostOnly(src.Graph()).
func restrictSource(src nn.Source) nn.Source {
	h := recipe("restrict", src)
	return nn.Derive(h.Sum(), func() *nn.Graph { return hostOnly(src.Graph()) })
}

// scaleSource is the recipe of ScaleGraph(src.Graph(), k).
func scaleSource(src nn.Source, k float64) nn.Source {
	h := recipe("scale", src)
	h.Float(k)
	return nn.Derive(h.Sum(), func() *nn.Graph { return ScaleGraph(src.Graph(), k) })
}

// combineSource is the recipe of Combine(a.Graph(), b.Graph(), copies).
// It refuses copies < 1 with Combine's error when it is made, before
// anything is built.
func combineSource(a, b nn.Source, copies int) (nn.Source, error) {
	if copies < 1 {
		return nil, errCopies(copies)
	}
	h := recipe("combine", a, b)
	h.Int(copies)
	return nn.Derive(h.Sum(), func() *nn.Graph {
		g, err := Combine(a.Graph(), b.Graph(), copies)
		if err != nil {
			// copies was checked above, and merging two valid graphs
			// yields a valid graph.
			panic(err)
		}
		return g
	}), nil
}
