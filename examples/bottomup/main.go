// Bottom-up design flow demo: runs the paper's three stages (Figure 3) at a
// small budget and prints what each stage decided — which Bundles made the
// Pareto frontier, what the group-based PSO converged to, and what the
// final feature-added network looks like on both hardware targets.
package main

import (
	"fmt"
	"os"

	"skynet/internal/core"
)

func main() {
	cfg := core.DefaultFlowConfig()
	cfg.Log = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
	}
	res, err := core.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("Stage 1 evaluated %d candidate bundles; %d on the Pareto frontier:\n",
		len(res.Candidates), len(res.Selected))
	for _, e := range res.Selected {
		fmt.Printf("  %-22s IoU %.3f  FPGA %.2fms  GPU %.2fms  %d DSP  %.1f KB\n",
			e.Bundle.Name(), e.Acc, e.FPGALatMS, e.GPULatMS, e.DSP, float64(e.ParamBytes)/1024)
	}

	fmt.Printf("\nStage 2 (group-based PSO, Eq. 1 fitness):\n")
	for i, f := range res.Search.History {
		fmt.Printf("  iteration %d: global best fitness %.4f\n", i, f)
	}
	fmt.Printf("  winner: %s\n", res.Search.Best.Net)

	fmt.Printf("\nStage 3 (feature addition):\n")
	fmt.Printf("  bundle after ReLU6 swap: %s\n", res.FinalBundle.Name())
	fmt.Printf("  bypass + reordering applied: %v\n", res.BypassApplied)
	fmt.Printf("  final network: %d parameters, validation IoU %.3f\n",
		res.FinalNet.NumParams(), res.FinalIoU)
	fmt.Printf("  FPGA: %s\n", res.FPGAReport)
	fmt.Printf("  GPU (TX2 roofline): %.2f ms/image\n", res.GPULatencyMS)
}
