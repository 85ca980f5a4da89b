package heteropim_test

import (
	"fmt"

	"heteropim"
)

// ExampleRun simulates one AlexNet training step on the heterogeneous
// PIM platform and reports whether the runtime offloaded work.
func ExampleRun() {
	r, err := heteropim.Run(heteropim.ConfigHeteroPIM, heteropim.AlexNet)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("offloaded ops:", r.OffloadedOps > 0)
	fmt.Println("breakdown sums to step:",
		r.Breakdown.Operation+r.Breakdown.DataMovement+r.Breakdown.Sync > 0.99*r.StepTime)
	// Output:
	// offloaded ops: true
	// breakdown sums to step: true
}

// ExampleSimulate_variant shows the Section VI-E software toggles: the
// full runtime (RC+OP) beats the bare heterogeneous hardware.
func ExampleSimulate_variant() {
	bare, err := heteropim.Simulate(heteropim.BatchCell{
		Model: heteropim.AlexNet, Variant: &heteropim.Variant{}}, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	full, err := heteropim.Simulate(heteropim.BatchCell{
		Model:   heteropim.AlexNet,
		Variant: &heteropim.Variant{RecursiveKernels: true, OperationPipeline: true}}, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("RC+OP faster:", full.StepTime < bare.StepTime)
	fmt.Println("RC+OP utilization higher:", full.FixedUtilization > bare.FixedUtilization)
	// Output:
	// RC+OP faster: true
	// RC+OP utilization higher: true
}

// ExampleSimulate_frequency shows the Section VI-D frequency scaling.
func ExampleSimulate_frequency() {
	cell := heteropim.BatchCell{Config: heteropim.ConfigHeteroPIM, Model: heteropim.DCGAN, FreqScale: 1}
	r1, _ := heteropim.Simulate(cell, nil)
	cell.FreqScale = 4
	r4, _ := heteropim.Simulate(cell, nil)
	fmt.Println("4x faster than 1x:", r4.StepTime < r1.StepTime)
	// Output:
	// 4x faster than 1x: true
}
