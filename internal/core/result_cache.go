package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"

	"heteropim/internal/fnv1a"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// The result cache: a simulation run is a pure function of (graph
// content, hardware configuration, effective options), and the paper's
// evaluation repeats the same cells across figures — Figs. 8 and 9 share
// one 5x5 grid, Fig. 10 re-runs the Hetero column, `pimtrain -config
// all` re-runs single cells of it. Memoizing whole Results by a
// content-addressed fingerprint collapses every duplicate cell to one
// live run:
//
//   - in-memory tier: a process-wide sync.Map with per-entry singleflight
//     (sync.Once), shared by the internal/runner workers, so concurrent
//     requests for the same cell block on one computation instead of
//     racing duplicates;
//   - disk tier (optional): JSON entries under HETEROPIM_CACHE_DIR in a
//     directory versioned by a schema hash of the Result type, so a
//     struct change invalidates the whole tier rather than decoding into
//     the wrong shape. Corrupted, truncated or mismatched entries are
//     treated as misses, never as errors.
//
// Cache hits return value copies of the stored Result — bit-identical to
// the cold run (Result is all value types; Go's JSON float encoding
// round-trips exactly, so the disk tier preserves bit identity too).
//
// Instrumented runs — a Collector or Trace hook attached — bypass the
// cache entirely (no lookup, no store): their purpose is the side
// effects, and a cached Result would silently skip them.

// Fingerprint is the 128-bit content address of one simulation cell.
type Fingerprint struct{ Hi, Lo uint64 }

// String renders the fingerprint as 32 hex digits (the disk file name).
func (f Fingerprint) String() string { return fmt.Sprintf("%016x%016x", f.Hi, f.Lo) }

// resultCacheUsable reports whether a RunPIM call may go through the
// cache: the cache must be enabled and the run uninstrumented.
func resultCacheUsable(opts Options) bool {
	return !resultCacheOff.Load() && opts.Collector == nil && opts.Trace == nil
}

// Executor tags: the first field of a cell's fingerprint, one whole
// constant per executor, so a lookup hashes it without building it.
const (
	tagPIM       = "heteropim-result/pim"
	tagCPU       = "heteropim-result/cpu"
	tagGPU       = "heteropim-result/gpu"
	tagNeurocube = "heteropim-result/neurocube"
)

// fingerprintRun computes the content address of one simulation cell.
// tag names the executor (tagPIM, ...), extra is executor-specific
// input (the Neurocube spec); opts must already be normalized so
// default and explicit option spellings share an address. The graph
// enters through its digest, so a Named source is looked up without
// building its graph.
func fingerprintRun(tag string, src nn.Source, cfg hw.SystemConfig, opts Options, extra []byte) Fingerprint {
	h := fnv1a.New128()
	h.Str(tag)
	h.Sum128(cfgDigest(cfg))
	h.Bytes(extra)
	// Effective options (the instrumentation fields are nil by
	// resultCacheUsable); per-op placement rides in the graph digest.
	// The multi-stack axis (Stacks, AllReduce) must be part of the
	// address: an M-stack run of the same graph on the same config is a
	// different cell than the single-stack run (the link parameters ride
	// in via the cfg JSON above).
	h.Int(opts.Stacks)
	h.Str(string(opts.AllReduce))
	h.Bool(opts.RC)
	h.Bool(opts.OP)
	h.Int(opts.PipelineDepth)
	h.Int(opts.Steps)
	h.Bool(opts.UseSelection)
	h.Float(opts.XPercent)
	h.Bool(opts.NoCPUFallback)
	h.Bool(opts.WideProgOps)
	h.Bool(opts.UniformPlacement)
	h.Bool(opts.GPUHost)
	h.Bool(opts.DisableOpportunistic)
	// Full graph content, hashed once per graph (nn.Graph.Digest), or
	// the recipe digest of a derived graph (nn.Derive).
	h.Sum128(src.Digest())
	return Fingerprint(h.Sum())
}

// cfgDigest hashes the hardware configuration via its JSON form: field
// order is the declaration order, and a new SystemConfig field changes
// the bytes — automatic invalidation instead of a silently incomplete
// hash. Encoding is the costliest step of a lookup, so digests are
// memoized per configuration value; the memo empties itself at
// cfgMemoCap entries, because a DSE sweep visits thousands of
// configurations once each. Configurations equal under == share a
// digest; their JSON could differ only in a -0 against a 0 field.
func cfgDigest(cfg hw.SystemConfig) fnv1a.Sum128 {
	cfgMu.Lock()
	d, ok := cfgMemo[cfg]
	cfgMu.Unlock()
	if ok {
		return d
	}
	h := fnv1a.New128()
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		// Unreachable for the plain-value SystemConfig; keep the address
		// well-defined anyway.
		h.Str("cfg-marshal-error")
	}
	h.Bytes(cfgJSON)
	d = h.Sum()
	cfgMu.Lock()
	if len(cfgMemo) >= cfgMemoCap {
		clear(cfgMemo)
	}
	cfgMemo[cfg] = d
	cfgMu.Unlock()
	return d
}

const cfgMemoCap = 16

var (
	cfgMu   sync.Mutex
	cfgMemo = map[hw.SystemConfig]fnv1a.Sum128{}
)

// cachedRun is the one path of the cached entry points (RunPIM, RunCPU,
// RunGPU, RunNeurocube) through the result cache. It looks the cell up
// by src's digest, and run resolves src's graph (or, for a multi-stack
// run, its shards' graphs) only on a miss, so a hit builds nothing; it
// counts the cell exactly once. An instrumented or cache-disabled run
// goes live.
func cachedRun(tag string, src nn.Source, cfg hw.SystemConfig, opts Options, extra []byte,
	run func() (Result, error)) (Result, error) {
	if !resultCacheUsable(opts) {
		return run()
	}
	return cachedResult(fingerprintRun(tag, src, cfg, opts, extra), run)
}

// resultEntry is one in-memory cache slot; once gives singleflight
// semantics — concurrent requests for the same fingerprint share one
// live run. done flips to true after once's body finishes, so a
// non-blocking peek can tell a populated entry from an in-flight one.
type resultEntry struct {
	once sync.Once
	done atomic.Bool
	res  Result
	err  error
}

var resultCache sync.Map // Fingerprint -> *resultEntry

// resultCacheOff disables the cache when set (CLI -nocache).
var resultCacheOff atomic.Bool

// resultCacheDir holds the disk-tier directory ("" = memory only).
var resultCacheDir atomic.Value // string

// EnvCacheDir names the on-disk cache directory; empty or unset keeps
// the cache in memory only.
const EnvCacheDir = "HETEROPIM_CACHE_DIR"

func init() {
	resultCacheDir.Store(os.Getenv(EnvCacheDir))
}

// EnableResultCache turns the result cache on or off, returning the
// previous state.
func EnableResultCache(on bool) bool {
	return !resultCacheOff.Swap(!on)
}

// SetResultCacheDir sets the disk-tier directory ("" disables the disk
// tier) and returns the previous one.
func SetResultCacheDir(dir string) string {
	prev, _ := resultCacheDir.Load().(string)
	resultCacheDir.Store(dir)
	return prev
}

// Cache counters (process lifetime; ResetResultCache zeroes them).
var (
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	cacheDiskHits atomic.Int64
	cacheBytes    atomic.Int64
)

// CacheStats is a snapshot of the result-cache counters.
type CacheStats struct {
	// Hits counts lookups served without a live simulation (the memory
	// tier, the disk tier, or a singleflight wait on an in-flight run).
	Hits int64 `json:"hits"`
	// Misses counts live simulations executed on behalf of the cache.
	Misses int64 `json:"misses"`
	// DiskHits is the subset of Hits satisfied from the disk tier.
	DiskHits int64 `json:"disk_hits"`
	// Bytes is the cumulative serialized size of stored results.
	Bytes int64 `json:"bytes"`
}

// ResultCacheStats reads the current counters.
func ResultCacheStats() CacheStats {
	return CacheStats{
		Hits:     cacheHits.Load(),
		Misses:   cacheMisses.Load(),
		DiskHits: cacheDiskHits.Load(),
		Bytes:    cacheBytes.Load(),
	}
}

// ResetResultCache drops every memoized result and the model and
// configuration digests their keys are made from (nn.ModelDigest,
// cfgDigest), and zeroes the counters (benchmarks isolating cold-path
// timing, tests).
func ResetResultCache() {
	resultCache.Range(func(k, _ any) bool {
		resultCache.Delete(k)
		return true
	})
	nn.ResetModelDigests()
	cfgMu.Lock()
	clear(cfgMemo)
	cfgMu.Unlock()
	cacheHits.Store(0)
	cacheMisses.Store(0)
	cacheDiskHits.Store(0)
	cacheBytes.Store(0)
}

// DropResultCacheMemory evicts every in-memory result entry while
// leaving the disk tier and the counters untouched. A subsequent
// lookup behaves exactly like a fresh process pointed at the same
// HETEROPIM_CACHE_DIR: disk entries are re-read (counted as DiskHits),
// everything else re-simulates. The cluster harness uses this between
// phases so in-process replicas exercise the shared L2 disk tier the
// way separate replica processes would, instead of inheriting the
// previous phase's process-wide memory tier. Goroutines already
// waiting on an evicted in-flight entry keep their reference and still
// complete normally.
func DropResultCacheMemory() {
	resultCache.Range(func(k, _ any) bool {
		resultCache.Delete(k)
		return true
	})
}

// cachedResult serves fp from the cache, running `run` at most once per
// fingerprint across all goroutines. Deterministic errors are cached in
// memory (repeating a failing cell re-fails identically) but never
// written to disk.
func cachedResult(fp Fingerprint, run func() (Result, error)) (Result, error) {
	v, ok := resultCache.Load(fp)
	if !ok {
		v, _ = resultCache.LoadOrStore(fp, &resultEntry{})
	}
	e := v.(*resultEntry)
	ran := false
	e.once.Do(func() {
		defer e.done.Store(true)
		if res, ok := loadDiskResult(fp); ok {
			e.res = res
			cacheDiskHits.Add(1)
			return
		}
		ran = true
		cacheMisses.Add(1)
		e.res, e.err = run()
		if e.err == nil {
			if enc, err := json.Marshal(e.res); err == nil {
				cacheBytes.Add(int64(len(enc)))
				storeDiskResult(fp, e.res)
			}
		}
	})
	if !ran {
		cacheHits.Add(1)
	}
	return e.res, e.err
}

// storeResult inserts an already-computed result under fp — the path by
// which the delta-simulation layer (checkpoint.go) publishes its probe
// and replay results, which are bit-identical to live runs of the same
// cell. A lost LoadOrStore race or an already-populated entry is fine:
// whoever populated it computed the same bits.
func storeResult(fp Fingerprint, res Result) {
	v, _ := resultCache.LoadOrStore(fp, &resultEntry{})
	e := v.(*resultEntry)
	e.once.Do(func() {
		defer e.done.Store(true)
		e.res = res
		if enc, err := json.Marshal(res); err == nil {
			cacheBytes.Add(int64(len(enc)))
			storeDiskResult(fp, res)
		}
	})
}

// PeekPIMResult reports whether the result cache already holds the
// outcome of RunPIM(src, cfg, opts), without running anything and without
// blocking on in-flight computations. A disk-tier hit is promoted into
// the memory tier so the eventual RunPIM for the same cell is a memory
// hit. The design-space explorer uses this to seed its surrogate model
// from the cross-run corpus — ordering information only, so a miss is
// never worth a simulation.
func PeekPIMResult(src nn.Source, cfg hw.SystemConfig, opts Options) (Result, bool) {
	opts = opts.withDefaults()
	if !resultCacheUsable(opts) {
		return Result{}, false
	}
	fp := fingerprintRun(tagPIM, src, cfg, opts, nil)
	if v, ok := resultCache.Load(fp); ok {
		e := v.(*resultEntry)
		if e.done.Load() && e.err == nil {
			return e.res, true
		}
		return Result{}, false
	}
	res, ok := loadDiskResult(fp)
	if !ok {
		return Result{}, false
	}
	v, _ := resultCache.LoadOrStore(fp, &resultEntry{})
	e := v.(*resultEntry)
	e.once.Do(func() {
		defer e.done.Store(true)
		e.res = res
		cacheDiskHits.Add(1)
	})
	if e.done.Load() && e.err == nil {
		return e.res, true
	}
	return Result{}, false
}

// ---- disk tier ----

// resultSchemaVersion bumps manually for semantic changes the Result
// type shape does not capture (e.g. a reinterpretation of a field).
const resultSchemaVersion = "1"

// resultSchemaHash versions the disk tier: the manual version plus a
// reflected signature of the Result type, so adding, removing, renaming
// or retyping any (nested) field moves the tier to a fresh directory.
var resultSchemaHash = fmt.Sprintf("%016x",
	fnv1a.MixBytes(fnv1a.Offset, resultSchemaVersion+":"+typeSig(reflect.TypeOf(Result{}), 0)))

// typeSig renders a type's structural signature.
func typeSig(t reflect.Type, depth int) string {
	if depth > 8 {
		return "..."
	}
	switch t.Kind() {
	case reflect.Struct:
		var b strings.Builder
		b.WriteString("struct{")
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			b.WriteString(f.Name)
			b.WriteByte(':')
			b.WriteString(typeSig(f.Type, depth+1))
			b.WriteByte(';')
		}
		b.WriteString("}")
		return b.String()
	case reflect.Slice, reflect.Array, reflect.Ptr:
		return t.Kind().String() + "[" + typeSig(t.Elem(), depth+1) + "]"
	case reflect.Map:
		return "map[" + typeSig(t.Key(), depth+1) + "]" + typeSig(t.Elem(), depth+1)
	default:
		return t.Kind().String()
	}
}

// diskEntry is the on-disk JSON shape; schema and fingerprint are
// verified on load so a stale or misplaced file reads as a miss.
type diskEntry struct {
	Schema      string `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	Result      Result `json:"result"`
}

// cachePath returns fp's file under the schema-versioned subdirectory,
// or "" when the disk tier is off.
func cachePath(fp Fingerprint) string {
	dir, _ := resultCacheDir.Load().(string)
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, "heteropim-"+resultSchemaHash, fp.String()+".json")
}

// loadDiskResult reads one disk-tier entry; every failure mode
// (missing, unreadable, corrupted, schema or fingerprint mismatch) is a
// plain miss.
func loadDiskResult(fp Fingerprint) (Result, bool) {
	path := cachePath(fp)
	if path == "" {
		return Result{}, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Result{}, false
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return Result{}, false
	}
	if e.Schema != resultSchemaHash || e.Fingerprint != fp.String() {
		return Result{}, false
	}
	cacheBytes.Add(int64(len(data)))
	return e.Result, true
}

// storeDiskResult writes one entry atomically (temp file + rename);
// failures are silent — the disk tier is an optimization, never a
// correctness dependency.
func storeDiskResult(fp Fingerprint, res Result) {
	path := cachePath(fp)
	if path == "" {
		return
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	data, err := json.Marshal(diskEntry{Schema: resultSchemaHash, Fingerprint: fp.String(), Result: res})
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(dir, fp.String()+".*.tmp")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
	}
}
