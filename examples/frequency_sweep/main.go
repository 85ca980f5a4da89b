// frequency_sweep reproduces the Section VI-D / VI-G frequency studies:
// the heterogeneous PIM at 1x, 2x and 4x the HMC 2.0 stack frequency
// (312.5 MHz), compared against the GPU, with energy-delay product and
// power (Figs. 11 and 17).
package main

import (
	"fmt"
	"log"

	"heteropim"
)

func main() {
	fmt.Println("3D memory frequency scaling (Figs. 11 and 17)")
	for _, model := range []heteropim.Model{heteropim.VGG19, heteropim.AlexNet} {
		gpu, err := heteropim.Run(heteropim.ConfigGPU, model)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s (GPU reference: %.3fs, %.1fW)\n", model, gpu.StepTime, gpu.AvgPower)
		fmt.Printf("  %-5s %10s %12s %12s %12s %14s\n",
			"Freq", "Step", "vs GPU", "EDP (J*s)", "Power", "GPU power/PIM")
		var bestEDP float64
		bestFreq := 0.0
		for _, f := range []float64{1, 2, 4} {
			r, err := heteropim.Simulate(heteropim.BatchCell{
				Config: heteropim.ConfigHeteroPIM, Model: model, FreqScale: f}, nil)
			if err != nil {
				log.Fatal(err)
			}
			if bestFreq == 0 || r.EDP < bestEDP {
				bestEDP, bestFreq = r.EDP, f
			}
			fmt.Printf("  %3gx %9.3fs %11.2fx %12.3g %11.1fW %13.2fx\n",
				f, r.StepTime, gpu.StepTime/r.StepTime, r.EDP, r.AvgPower,
				gpu.AvgPower/r.AvgPower)
		}
		fmt.Printf("  most energy-efficient point: %gx (paper: 4x)\n", bestFreq)
	}
	fmt.Println("\nPaper shape: higher PIM frequency overtakes the GPU; VGG-19's gains")
	fmt.Println("saturate between 2x and 4x (internal bandwidth bound) while AlexNet")
	fmt.Println("keeps scaling; the GPU draws 1.5-2.6x more power than Hetero PIM at 4x.")
}
