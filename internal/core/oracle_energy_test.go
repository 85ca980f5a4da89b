package core_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"heteropim/internal/core"
	"heteropim/internal/energy"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// TestOracleCNNs attaches the oracle to the five CNNs on the three PIM
// platforms, each with RC and OP switched on and off, and to 2- and
// 4-stack runs of each platform (stack 0's timeline and the
// all-reduce's link spans). Every run's energy is then itemized
// (checkEnergy).
func TestOracleCNNs(t *testing.T) {
	kinds := []hw.ConfigKind{hw.ConfigProgrPIM, hw.ConfigFixedPIM, hw.ConfigHeteroPIM}
	for _, name := range nn.CNNModelNames() {
		g, err := nn.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range kinds {
			cfg := hw.PaperConfigScaled(kind, 1)
			for _, rc := range []bool{false, true} {
				for _, op := range []bool{false, true} {
					opts, _ := core.PIMOptionsFor(kind)
					opts.RC, opts.OP = rc, op
					label := fmt.Sprintf("%s on %v RC=%t OP=%t", name, kind, rc, op)
					checkEnergy(t, label, core.RunChecked(t, label, g, cfg, opts))
				}
			}
			for _, stacks := range []int{2, 4} {
				opts, _ := core.PIMOptionsFor(kind)
				opts.Stacks = stacks
				label := fmt.Sprintf("%s on %d %v stacks", name, stacks, kind)
				checkEnergy(t, label, core.RunChecked(t, label, g, cfg, opts))
			}
		}
	}
}

// checkEnergy asserts that every term of r's energy itemization is
// finite and non-negative, and that no idle term energy.Evaluate clamps
// at zero needs the clamp: no device is busy for longer than the step
// times the capacity installed across the stacks.
func checkEnergy(t *testing.T, label string, r core.Result) {
	t.Helper()
	parts := reflect.ValueOf(energy.Evaluate(r).Parts)
	for i := 0; i < parts.NumField(); i++ {
		if j := parts.Field(i).Float(); math.IsNaN(j) || math.IsInf(j, 0) || j < 0 {
			t.Errorf("%s: energy part %s = %g, want finite and >= 0", label, parts.Type().Field(i).Name, j)
		}
	}
	stacks := float64(max(r.Stacks, 1))
	u, cfg := r.Usage, r.Config
	for _, c := range []struct {
		name       string
		busy, have float64
	}{
		{"CPU busy", u.CPUBusy, stacks * r.StepTime},
		{"programmable PIM busy", u.ProgBusy, stacks * float64(cfg.ProgPIM.Processors) * r.StepTime},
		{"fixed-function unit-seconds", u.FixedBusyUnitSeconds, stacks * float64(cfg.FixedPIM.Units) * r.StepTime},
	} {
		if c.busy > c.have {
			t.Errorf("%s: %s %g exceeds the %g installed; energy.Evaluate would clamp its idle term", label, c.name, c.busy, c.have)
		}
	}
}
