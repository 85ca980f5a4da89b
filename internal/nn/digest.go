package nn

import (
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

// The ModelDigest memo holds 16-byte digests, never graphs: a graph
// lives only as long as the call that built it.
var (
	digestMu   sync.Mutex
	digestMemo = map[modelKey]fnv1a.Sum128{}
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
	d, g := modelDigest(name, batch)
	return d, g, nil
}

// modelDigest is ModelDigest for a model and normalized batch that
// checkModel accepted.
func modelDigest(name ModelName, batch int) (fnv1a.Sum128, *Graph) {
	k := modelKey{name, batch}
	digestMu.Lock()
	d, ok := digestMemo[k]
	digestMu.Unlock()
	if ok {
		return d, nil
	}
	g := build(name, batch)
	d = g.Digest()
	digestMu.Lock()
	digestMemo[k] = d
	digestMu.Unlock()
	return d, g
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

// named is the Source of a built-in model at a batch size.
type named struct {
	name  ModelName
	batch int
	d     fnv1a.Sum128
	g     *Graph
}

// Named returns the Source of a built-in model at a batch size (0 = the
// paper's). Its digest comes from ModelDigest; its graph is the one
// ModelDigest built on a memo miss, or is built by the first Graph
// call. It fails where BuildWithBatch fails. A Named source serves one
// run at a time.
func Named(name ModelName, batch int) (Source, error) {
	batch, err := checkModel(name, batch)
	if err != nil {
		return nil, err
	}
	d, g := modelDigest(name, batch)
	return &named{name: name, batch: batch, d: d, g: g}, nil
}

func (n *named) Digest() fnv1a.Sum128 { return n.d }

func (n *named) Graph() *Graph {
	if n.g == nil {
		g := build(n.name, n.batch)
		// Builds are deterministic, so the memoized digest is this
		// graph's: seed it instead of walking the graph again.
		g.digestOnce.Do(func() { g.digest = n.d })
		n.g = g
	}
	return n.g
}

// derived is the Source of a graph built from a recipe.
type derived struct {
	d     fnv1a.Sum128
	build func() *Graph
	g     *Graph
}

// Derive returns a Source addressed by d, the digest of a recipe: a
// versioned tag naming the builder, the digests of its input sources
// and its parameters. build runs at most once, on the first Graph call
// (so a result-cache hit never runs it), and must return a fresh graph,
// which is seeded with d instead of being hashed. d does not cover
// build's code, so a change to what a builder builds must change its
// tag. Like Named, a Derive source serves one run at a time.
func Derive(d fnv1a.Sum128, build func() *Graph) Source {
	return &derived{d: d, build: build}
}

func (s *derived) Digest() fnv1a.Sum128 { return s.d }

func (s *derived) Graph() *Graph {
	if s.g == nil {
		g := s.build()
		g.digestOnce.Do(func() { g.digest = s.d })
		s.g = g
	}
	return s.g
}
