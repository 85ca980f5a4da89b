package nn

import (
	"fmt"
	"sync"

	"heteropim/internal/fnv1a"
)

// Digest returns the graph's 128-bit content hash: every Graph field
// and every Op field, edges included, in op order — all that an
// executor reads. It is computed on the first call and remembered, so
// a graph must not change after its first Digest; the result cache,
// the profile cache and the multi-stack named-model check all key on
// it. Equal digests imply equal graphs, but equal graphs need not
// share a digest: a graph built by a Derive source carries its
// recipe's digest instead.
func (g *Graph) Digest() fnv1a.Sum128 {
	g.digestOnce.Do(func() { g.digest = g.hash() })
	return g.digest
}

// hash walks the graph for Digest.
func (g *Graph) hash() fnv1a.Sum128 {
	h := fnv1a.New128()
	h.Str(g.Model)
	h.Int(g.BatchSize)
	h.Float(g.InputBytes)
	h.Float(g.ParamBytes)
	h.Float(g.ActivationBytes)
	h.Float(g.GPUUnhiddenTransferFrac)
	h.Float(g.GPUUtilization)
	h.Float(g.GPUEffFactor)
	h.Int(len(g.Ops))
	for _, op := range g.Ops {
		h.Int(op.ID)
		h.Str(op.Name)
		h.Str(string(op.Type))
		h.Float(op.Muls)
		h.Float(op.Adds)
		h.Float(op.OtherFlops)
		h.Float(op.Bytes)
		h.Int(op.UnitGranule)
		h.Bool(op.Params)
		h.Int(len(op.Inputs))
		for _, in := range op.Inputs {
			h.Int(in)
		}
		h.Int(len(op.CrossStep))
		for _, cs := range op.CrossStep {
			h.Int(cs)
		}
		h.Bool(op.HostOnly)
	}
	return h.Sum()
}

// modelKey names one built-in graph: a model at a normalized batch.
type modelKey struct {
	name  ModelName
	batch int
}

// modelInfo is what the ModelDigest memo keeps of a built-in graph: its
// digest, and its parameter footprint, which a multi-stack run reads
// without the graph (NamedModel).
type modelInfo struct {
	digest     fnv1a.Sum128
	paramBytes float64
}

// The ModelDigest memo holds digests and footprints, never graphs: a
// graph lives only as long as the call that built it.
var (
	digestMu   sync.Mutex
	digestMemo = map[modelKey]modelInfo{}
)

// ModelDigest returns BuildWithBatch(name, batch).Digest() without
// building the graph when the memo already holds its digest. On a memo
// miss it builds the graph to hash it and returns that graph as well,
// so a caller that goes on to run it builds it once; on a hit the graph
// is nil. A model or batch BuildWithBatch rejects returns its error and
// stores nothing.
func ModelDigest(name ModelName, batch int) (fnv1a.Sum128, *Graph, error) {
	batch, err := checkModel(name, batch)
	if err != nil {
		return fnv1a.Sum128{}, nil, err
	}
	info, g := modelDigest(name, batch)
	return info.digest, g, nil
}

// modelDigest is ModelDigest for a model and normalized batch that
// checkModel accepted, returning the memo's whole entry.
func modelDigest(name ModelName, batch int) (modelInfo, *Graph) {
	k := modelKey{name, batch}
	digestMu.Lock()
	info, ok := digestMemo[k]
	digestMu.Unlock()
	if ok {
		return info, nil
	}
	g := build(name, batch)
	info = modelInfo{digest: g.Digest(), paramBytes: g.ParamBytes}
	digestMu.Lock()
	digestMemo[k] = info
	digestMu.Unlock()
	return info, g
}

// ResetModelDigests empties the ModelDigest memo, so the next lookup of
// each model pays its build and hash as in a fresh process.
func ResetModelDigests() {
	digestMu.Lock()
	clear(digestMemo)
	digestMu.Unlock()
}

// Source is a step graph as the simulator's cached entry points take
// it: its digest is all a result-cache lookup needs, and the graph
// itself is resolved only when the run executes. *Graph is a Source;
// Named returns one that builds nothing on a cache hit.
type Source interface {
	Digest() fnv1a.Sum128
	Graph() *Graph
}

// Graph returns g itself, making *Graph a Source.
func (g *Graph) Graph() *Graph { return g }

// named is the Source of a built-in model at a batch size. Its digest
// and its graph are each resolved once, whichever goroutine asks first.
type named struct {
	name  ModelName
	batch int

	digestOnce sync.Once
	info       modelInfo
	graphOnce  sync.Once
	g          *Graph
}

// Named returns the Source of a built-in model at a batch size (0 = the
// paper's). Its digest comes from ModelDigest; its graph is the one
// ModelDigest built on a memo miss, or is built by the first Graph
// call. It fails where BuildWithBatch fails. A Named source is safe for
// concurrent use: however many runs share it, it builds at most one
// graph.
func Named(name ModelName, batch int) (Source, error) {
	batch, err := checkModel(name, batch)
	if err != nil {
		return nil, err
	}
	n := &named{name: name, batch: batch}
	n.Digest()
	return n, nil
}

func (n *named) Digest() fnv1a.Sum128 {
	n.digestOnce.Do(func() { n.info, n.g = modelDigest(n.name, n.batch) })
	return n.info.digest
}

func (n *named) Graph() *Graph {
	n.graphOnce.Do(func() {
		d := n.Digest()
		if n.g == nil {
			g := build(n.name, n.batch)
			// Builds are deterministic, so the memoized digest is this
			// graph's: seed it instead of walking the graph again.
			g.digestOnce.Do(func() { g.digest = d })
			n.g = g
		}
	})
	return n.g
}

// NamedModel reports the built-in model and batch size src is, and the
// model's parameter footprint (Graph.ParamBytes). A Named source
// answers from its digest, so it resolves no graph beyond what that
// digest needs. Any other source must be a built-in model unmodified at
// its batch size: its digest must equal ModelDigest's for the model and
// batch its graph names, or NamedModel returns an error.
func NamedModel(src Source) (ModelName, int, float64, error) {
	if n, ok := src.(*named); ok {
		n.Digest()
		return n.name, n.batch, n.info.paramBytes, nil
	}
	g := src.Graph()
	name := ModelName(g.Model)
	ref, _, err := ModelDigest(name, g.BatchSize)
	if err != nil {
		return "", 0, 0, err
	}
	if ref != src.Digest() {
		return "", 0, 0, fmt.Errorf("nn: %s graph differs from the named model at batch %d", g.Model, g.BatchSize)
	}
	return name, g.BatchSize, g.ParamBytes, nil
}

// ShareNamed returns one Named source per element i in [0, n), for the
// model and batch size key(i) names. Elements of one (model, normalized
// batch) get the same source, so a sweep's cells share one graph build
// and one digest lookup; each source resolves its digest on its first
// use, so workers resolve different models in parallel. The slice is
// the only thing that keeps the sources: a caller that clears each
// element as its cell takes it lets a graph go once the last cell of
// its pair has it. An element whose model or batch Named refuses is
// nil, and Named reports the error.
func ShareNamed(n int, key func(i int) (ModelName, int)) []Source {
	out := make([]Source, n)
	shared := map[modelKey]*named{}
	for i := range out {
		name, batch := key(i)
		batch, err := checkModel(name, batch)
		if err != nil {
			continue
		}
		k := modelKey{name, batch}
		src := shared[k]
		if src == nil {
			src = &named{name: name, batch: batch}
			shared[k] = src
		}
		out[i] = src
	}
	return out
}

// derived is the Source of a graph built from a recipe.
type derived struct {
	d     fnv1a.Sum128
	once  sync.Once
	build func() *Graph
	g     *Graph
}

// Derive returns a Source addressed by d, the digest of a recipe: a
// versioned tag naming the builder, the digests of its input sources
// and its parameters. build runs at most once, on the first Graph call
// (so a result-cache hit never runs it), and must return a fresh graph,
// which is seeded with d instead of being hashed. d does not cover
// build's code, so a change to what a builder builds must change its
// tag. Like Named, a Derive source is safe for concurrent use.
func Derive(d fnv1a.Sum128, build func() *Graph) Source {
	return &derived{d: d, build: build}
}

func (s *derived) Digest() fnv1a.Sum128 { return s.d }

func (s *derived) Graph() *Graph {
	s.once.Do(func() {
		g := s.build()
		g.digestOnce.Do(func() { g.digest = s.d })
		s.g = g
	})
	return s.g
}
