// Package scenario is the declarative front door of the simulator: a
// versioned JSON schema describing cell sets (models x configurations
// x option axes), compiled to the ordered, deduplicated cell plans
// every CLI, the serving POST body and the load generators execute.
//
// The compiler is deterministic: the same spec always produces the
// same plan (same cells, same order, same duplicate count), and the
// arrival-schedule generator is seeded, so an open-loop load test is
// reproducible from its scenario file alone. Validation rides the same
// name tables as heteropim.ParseConfig / heteropim.ParseModel
// (hw.ParseConfigFlag / nn.ParseModelName), so a scenario accepts
// exactly the spellings the flags and the POST body do — and rejects
// unknown names with the same valid-name listing.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// Version is the schema version this package compiles. A spec's
// "scenario" field must match exactly; unknown future versions are
// rejected rather than half-understood.
const Version = 1

// MaxCells bounds a compiled plan's unique cell count — a scenario is
// a figure grid or a load mix, not a denial-of-service vector for the
// serving daemon (which accepts scenario documents as POST bodies).
const MaxCells = 4096

// VariantAxis is one RC/OP runtime-technique combination of the
// Section VI-E study (Hetero PIM only).
type VariantAxis struct {
	RecursiveKernels  bool `json:"recursive_kernels"`
	OperationPipeline bool `json:"operation_pipeline"`
}

// CellSet is one cross product of models and option axes. Empty axes
// default to the paper's baseline (configs: hetero; freq_scales: [1];
// batch_sizes: paper defaults; stacks: [1]). The variants and
// processors axes replace the configs axis (they are Hetero PIM
// studies by construction) and are mutually exclusive.
type CellSet struct {
	Models     []string      `json:"models"`
	Configs    []string      `json:"configs,omitempty"`
	FreqScales []float64     `json:"freq_scales,omitempty"`
	BatchSizes []int         `json:"batch_sizes,omitempty"`
	Stacks     []int         `json:"stacks,omitempty"`
	AllReduce  []string      `json:"allreduce,omitempty"`
	Variants   []VariantAxis `json:"variants,omitempty"`
	Processors []int         `json:"processors,omitempty"`
}

// Spec is the versioned scenario document.
type Spec struct {
	// Scenario is the schema version; must equal Version.
	Scenario int `json:"scenario"`
	// Name labels the scenario in reports and responses.
	Name string `json:"name,omitempty"`
	// Seed drives the arrival-schedule generator (0 is a valid seed).
	Seed int64 `json:"seed,omitempty"`
	// Cells are the cell sets, compiled in order.
	Cells []CellSet `json:"cells"`
	// Arrival, when set, describes how load-generating consumers fire
	// the cells at a serving daemon.
	Arrival *Arrival `json:"arrival,omitempty"`
}

// Cell is one compiled simulation cell: every axis resolved and
// normalized. The zero-value axes match the paper baseline the public
// Run entry points default to.
type Cell struct {
	// Config is the platform kind; ignored (Hetero PIM) when Variant is
	// set or Processors > 0.
	Config hw.ConfigKind
	Model  nn.ModelName
	// FreqScale is always >= some positive value (default 1).
	FreqScale float64
	// BatchSize 0 means the model's paper batch size.
	BatchSize int
	// Stacks is always >= 1; AllReduce is "" exactly when Stacks == 1.
	Stacks    int
	AllReduce string
	Variant   *VariantAxis
	// Processors > 0 selects the constant-area processor-count study.
	Processors int
}

// Key is the cell's canonical identity — the dedup key. Two spec
// entries spelling the same cell differently ("GPU" vs "gpu", an
// explicit freq_scale 1 vs the default) collapse onto one key.
func (c Cell) Key() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d|%s|%g|%d|%d|%s|", c.Config, c.Model, c.FreqScale,
		c.BatchSize, c.Stacks, c.AllReduce)
	if c.Variant != nil {
		fmt.Fprintf(&b, "rc=%t,op=%t", c.Variant.RecursiveKernels, c.Variant.OperationPipeline)
	}
	fmt.Fprintf(&b, "|%d", c.Processors)
	return b.String()
}

// Plan is a compiled scenario: the unique cells in deterministic
// order, the dedup accounting, and the validated arrival process.
type Plan struct {
	Name string
	Seed int64
	// Cells are unique and ordered: first occurrence wins.
	Cells []Cell
	// Requested counts cells before dedup; Requested - len(Cells) were
	// duplicates.
	Requested  int
	Duplicates int
	Arrival    *Arrival
}

// Parse decodes and validates a scenario document strictly: unknown
// fields, trailing garbage and version mismatches are errors, so a
// typo'd axis name cannot silently compile to the default grid.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after the document")
	}
	if s.Scenario != Version {
		return nil, fmt.Errorf("scenario: unsupported version %d (this build compiles version %d)",
			s.Scenario, Version)
	}
	return &s, nil
}

// Axis limits of a cell, shared by both decoders of external cells
// (Compile and POST /v1/jobs): generous for every real study, tight
// enough that a fuzzer or a hostile body cannot make a cell fan out
// into thousands of shard runs, or grow the per-(model, batch) caches
// without bound.
const (
	MaxBatchSize  = 1 << 16
	MaxStacks     = 64
	MaxProcessors = 256
)

func validFreq(v float64) bool {
	return v > 0 && !math.IsInf(v, 1) && !math.IsNaN(v)
}

// Compile expands, validates, normalizes and deduplicates the spec's
// cell sets into a Plan. It is a pure function of the spec: compiling
// twice yields identical plans (the fuzz harness holds it to that).
func Compile(s *Spec) (*Plan, error) {
	if s == nil {
		return nil, fmt.Errorf("scenario: nil spec")
	}
	if len(s.Cells) == 0 {
		return nil, fmt.Errorf("scenario: empty cell product (no cell sets)")
	}
	if s.Arrival != nil {
		if err := s.Arrival.Validate(); err != nil {
			return nil, err
		}
	}
	plan := &Plan{Name: s.Name, Seed: s.Seed, Arrival: s.Arrival}
	seen := map[string]bool{}
	for si, cs := range s.Cells {
		cells, err := expandSet(si, cs)
		if err != nil {
			return nil, err
		}
		plan.Requested += len(cells)
		for _, c := range cells {
			k := c.Key()
			if seen[k] {
				plan.Duplicates++
				continue
			}
			seen[k] = true
			plan.Cells = append(plan.Cells, c)
			if len(plan.Cells) > MaxCells {
				return nil, fmt.Errorf("scenario: over %d unique cells; split the scenario", MaxCells)
			}
		}
	}
	if len(plan.Cells) == 0 {
		return nil, fmt.Errorf("scenario: empty cell product (no cells compiled)")
	}
	return plan, nil
}

// expandSet cross-multiplies one cell set. The nesting order is the
// contract the CLIs' byte-identity rides on: models (outermost), then
// freq_scales, batch_sizes, stacks, allreduce, variants, processors,
// and configs innermost — exactly the row order of the legacy
// flag-driven sweeps.
func expandSet(si int, cs CellSet) ([]Cell, error) {
	if len(cs.Models) == 0 {
		return nil, fmt.Errorf("scenario: cell set %d: empty cell product (no models)", si)
	}
	if len(cs.Variants) > 0 && len(cs.Processors) > 0 {
		return nil, fmt.Errorf("scenario: cell set %d: variants and processors are mutually exclusive", si)
	}
	if (len(cs.Variants) > 0 || len(cs.Processors) > 0) && len(cs.Configs) > 0 {
		return nil, fmt.Errorf("scenario: cell set %d: variants/processors imply the hetero platform; drop the configs axis", si)
	}

	models := make([]nn.ModelName, len(cs.Models))
	for i, name := range cs.Models {
		m, err := nn.ParseModelName(name)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	configs := []hw.ConfigKind{hw.ConfigHeteroPIM}
	if len(cs.Configs) > 0 {
		configs = make([]hw.ConfigKind, len(cs.Configs))
		for i, name := range cs.Configs {
			k, err := hw.ParseConfigFlag(name)
			if err != nil {
				return nil, err
			}
			configs[i] = k
		}
	}
	freqs := cs.FreqScales
	if len(freqs) == 0 {
		freqs = []float64{1}
	}
	for _, v := range freqs {
		if !validFreq(v) {
			return nil, fmt.Errorf("scenario: cell set %d: freq_scale must be a positive finite number, got %g", si, v)
		}
	}
	batches := cs.BatchSizes
	if len(batches) == 0 {
		batches = []int{0}
	}
	for _, b := range batches {
		if b < 0 || b > MaxBatchSize {
			return nil, fmt.Errorf("scenario: cell set %d: batch_size must be in [0, %d], got %d", si, MaxBatchSize, b)
		}
		if b != 0 && (len(cs.Variants) > 0 || len(cs.Processors) > 0) {
			return nil, fmt.Errorf("scenario: cell set %d: variants/processors run at the paper batch size; drop the batch_sizes axis", si)
		}
	}
	stacks := cs.Stacks
	if len(stacks) == 0 {
		stacks = []int{1}
	}
	for _, m := range stacks {
		if m < 1 || m > MaxStacks {
			return nil, fmt.Errorf("scenario: cell set %d: stacks must be in [1, %d], got %d", si, MaxStacks, m)
		}
	}
	allreduce := cs.AllReduce
	if len(allreduce) == 0 {
		allreduce = []string{""}
	}
	for _, a := range allreduce {
		if _, err := nn.ParseAllReduceKind(a); err != nil {
			return nil, fmt.Errorf("scenario: cell set %d: %w", si, err)
		}
	}
	for _, p := range cs.Processors {
		if p < 1 || p > MaxProcessors {
			return nil, fmt.Errorf("scenario: cell set %d: processors must be in [1, %d], got %d", si, MaxProcessors, p)
		}
	}

	var cells []Cell
	emit := func(c Cell) {
		cells = append(cells, c)
	}
	for _, m := range models {
		for _, fs := range freqs {
			for _, bs := range batches {
				for _, ms := range stacks {
					for _, ar := range allreduce {
						base := Cell{Model: m, FreqScale: fs, BatchSize: bs, Stacks: ms}
						if ms > 1 {
							// Multi-stack runs default to the ring schedule;
							// single-stack runs have no gradient exchange, so
							// the allreduce axis collapses (the dedup pass
							// folds the resulting duplicates).
							base.AllReduce = ar
							if base.AllReduce == "" {
								base.AllReduce = string(nn.AllReduceRing)
							}
						}
						switch {
						case len(cs.Variants) > 0:
							for _, v := range cs.Variants {
								c := base
								v := v
								c.Config = hw.ConfigHeteroPIM
								c.Variant = &v
								emit(c)
							}
						case len(cs.Processors) > 0:
							for _, p := range cs.Processors {
								c := base
								c.Config = hw.ConfigHeteroPIM
								c.Processors = p
								emit(c)
							}
						default:
							for _, cfg := range configs {
								c := base
								c.Config = cfg
								emit(c)
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}
