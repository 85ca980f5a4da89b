package core

import (
	"math"
	"sync"
	"sync/atomic"

	"heteropim/internal/fnv1a"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// The profile cache: profiling one training step (Section III-C, Step 1)
// is a pure function of the graph's op descriptors and the CPU spec, and
// nearly every figure of the evaluation repeats it for the same handful
// of models. Memoizing it lets a parallel sweep profile each
// (model, CPU) pair exactly once, with concurrent requests for the same
// key sharing one computation (singleflight via a per-entry sync.Once).
//
// Cached profiles are shared and must be treated as IMMUTABLE by all
// callers; anything that needs a filtered or modified profile (e.g.
// RunPIM dropping HostOnly ops from selection) must build its own copy.

// profileKey identifies one profiling input. Identity is by content:
// the source's digest (nn.Graph.Digest, or the memoized digest of an
// nn.Named model), which covers every descriptor field the profiler
// reads, so a lookup needs no graph. Synthetic graphs (combined co-run
// steps, scaled or replayed traces) have keys of their own and simply
// occupy extra entries.
type profileKey struct {
	digest fnv1a.Sum128
	cpu    hw.CPUSpec
}

// profileEntry is one cache slot; once guards the single computation.
// The per-type view is computed by its own once, on the first
// CachedTypeProfile call: most entries only ever feed candidate
// selection, and the cache holds thousands of entries' worth of
// profiles, so the view is not paid for where nobody reads it. The
// candidate sets selected from the profile are kept beside it, one per
// selection threshold a run asked for, each computed once.
type profileEntry struct {
	once sync.Once
	prof StepProfile

	typesOnce sync.Once
	types     TypeProfile

	candMu sync.Mutex
	cands  []*candidateSlot
}

// candidateSlot is one x% selection of an entry's profile.
type candidateSlot struct {
	x    float64
	once sync.Once
	set  candidateSet
}

// candidateSet is a set of offload candidates: one bit per op ID, and
// the number of ops in the set.
type candidateSet struct {
	bits []uint64
	n    int
}

// has reports whether op id is a candidate.
func (c *candidateSet) has(id int) bool { return c.bits[id>>6]&(1<<(id&63)) != 0 }

// candidateSelections counts candidate sets computed, for the tests.
var candidateSelections atomic.Int64

// cachedCandidates returns the offload candidates of g at the selection
// threshold xPercent: SelectCandidates on g's profile without its
// HostOnly ops (withoutHostOnly). It is computed at most once per
// profile-cache entry and threshold, across all goroutines; HostOnly
// placement is part of g's digest, so the entry determines the set. The
// result is shared and must not be modified.
func cachedCandidates(g *nn.Graph, cpu hw.CPUSpec, xPercent float64) *candidateSet {
	e := profileEntryFor(g, cpu)
	e.candMu.Lock()
	var slot *candidateSlot
	for _, c := range e.cands {
		if math.Float64bits(c.x) == math.Float64bits(xPercent) {
			slot = c
			break
		}
	}
	if slot == nil {
		slot = &candidateSlot{x: xPercent}
		e.cands = append(e.cands, slot)
	}
	e.candMu.Unlock()
	slot.once.Do(func() {
		candidateSelections.Add(1)
		ids := selectOps(withoutHostOnly(g, e.prof), xPercent)
		slot.set = candidateSet{bits: make([]uint64, (len(g.Ops)+63)/64), n: len(ids)}
		for _, id := range ids {
			slot.set.bits[id>>6] |= 1 << (id & 63)
		}
	})
	return &slot.set
}

var profileCache sync.Map // profileKey -> *profileEntry

// CachedProfileStep returns the memoized step profile for (src, cpu),
// computing it at most once per distinct input across all goroutines.
// The lookup keys on src's digest, so src's graph is resolved (for an
// nn.Named source: built) only on a miss. The returned profile is
// shared: callers must not modify it or its Entries. Use ProfileStep
// directly for a private copy.
func CachedProfileStep(src nn.Source, cpu hw.CPUSpec) StepProfile {
	return profileEntryFor(src, cpu).prof
}

// CachedTypeProfile returns the memoized profile of (src, cpu) summed
// per op type, computing the sums at most once per entry. A warm call
// resolves no graph. The result is shared and must not be modified.
func CachedTypeProfile(src nn.Source, cpu hw.CPUSpec) TypeProfile {
	e := profileEntryFor(src, cpu)
	e.typesOnce.Do(func() { e.types = typeProfile(src.Graph(), e.prof) })
	return e.types
}

// profileEntryFor returns the filled cache entry of (src, cpu).
func profileEntryFor(src nn.Source, cpu hw.CPUSpec) *profileEntry {
	key := profileKey{digest: src.Digest(), cpu: cpu}
	v, ok := profileCache.Load(key)
	if !ok {
		v, _ = profileCache.LoadOrStore(key, &profileEntry{})
	}
	e := v.(*profileEntry)
	e.once.Do(func() { e.prof = ProfileStep(src.Graph(), cpu) })
	return e
}

// ResetProfileCache drops every memoized profile (tests and
// long-running servers that churn through many synthetic graphs).
func ResetProfileCache() {
	profileCache.Range(func(k, _ any) bool {
		profileCache.Delete(k)
		return true
	})
}
