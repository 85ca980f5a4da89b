package heteropim

import (
	"fmt"
	"io"

	"heteropim/internal/core"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// HardwareConfig is an opaque handle on a full platform description —
// host CPU, optional GPU, memory stack, PIM complement — for
// design-space exploration beyond the paper's fixed configurations.
type HardwareConfig struct {
	cfg hw.SystemConfig
}

// DefaultHardware returns the paper's configuration for a platform.
func DefaultHardware(kind Config) HardwareConfig {
	return HardwareConfig{cfg: hw.PaperConfig(kind)}
}

// LoadHardware parses a JSON hardware description (see SaveHardware for
// the schema) and validates it.
func LoadHardware(r io.Reader) (HardwareConfig, error) {
	cfg, err := hw.ReadConfig(r)
	if err != nil {
		return HardwareConfig{}, err
	}
	return HardwareConfig{cfg: cfg}, nil
}

// SaveHardware writes the description as indented JSON.
func (h HardwareConfig) SaveHardware(w io.Writer) error {
	return hw.WriteConfig(w, h.cfg)
}

// Name returns the configuration's label.
func (h HardwareConfig) Name() string { return h.cfg.Name }

// FixedUnits returns the fixed-function PIM unit budget.
func (h HardwareConfig) FixedUnits() int { return h.cfg.FixedPIM.Units }

// WithFixedUnits returns a copy with a different fixed-function unit
// budget — the axis the paper's McPAT/HotSpot exploration fixed at 444.
func (h HardwareConfig) WithFixedUnits(units int) (HardwareConfig, error) {
	if units < 0 {
		return HardwareConfig{}, fmt.Errorf("heteropim: negative unit budget %d", units)
	}
	c := h.cfg
	c.FixedPIM = hw.PaperFixedPIM(units)
	c.Name = fmt.Sprintf("%s (%d units)", c.Name, units)
	return HardwareConfig{cfg: c}, nil
}

// WithStackFrequencyScale returns a copy at a different PLL multiplier.
func (h HardwareConfig) WithStackFrequencyScale(scale float64) (HardwareConfig, error) {
	if scale <= 0 {
		return HardwareConfig{}, fmt.Errorf("heteropim: non-positive frequency scale %g", scale)
	}
	c := h.cfg
	c.Stack.FreqScale = scale
	return HardwareConfig{cfg: c}, nil
}

// RunOnHardware simulates a model on a custom platform under the full
// heterogeneous-PIM runtime (profiling, selection, RC, OP).
func RunOnHardware(h HardwareConfig, model Model) (Result, error) {
	src, err := nn.Named(model, 0)
	if err != nil {
		return Result{}, err
	}
	r, err := core.RunPIM(src, h.cfg, core.HeteroOptions())
	if err != nil {
		return Result{}, err
	}
	return wrap(r), nil
}
