package hw_test

import (
	"fmt"

	"skynet/internal/hw"
	"skynet/internal/nn"
)

func ExampleScoreEntries() {
	// Reproduce the 2019 GPU-track scores (Table 5) from the published
	// IoU/FPS/Power columns. The contest-wide mean energy is private, so it
	// is calibrated from the winning row's published total score.
	mean := hw.CalibrateMeanEnergy(hw.GPU2019[0], hw.GPUTrackX)
	for _, s := range hw.ScoreEntries(hw.GPU2019, hw.GPUTrackX, mean) {
		fmt.Printf("%s %.3f\n", s.Team, s.TS)
	}
	// Output:
	// SkyNet 1.504
	// Thinker 1.443
	// DeepZS 1.422
}

func ExampleEnergyScore() {
	// A design 10x more efficient than the contest average with the GPU
	// track's log base (x = 10) earns the maximum 0.2 bonus.
	fmt.Printf("%.1f\n", hw.EnergyScore(10, 1, hw.GPUTrackX))
	// Output: 1.2
}

func ExamplePlatform_LayerLatency() {
	p := hw.Platform{PeakFLOPS: 100e9, MemBW: 10e9, Efficiency: 1}
	// 50 GMACs = 100 GFLOP: exactly one second of compute.
	fmt.Printf("%.1fs\n", p.LayerLatency(nn.NodeCost{MACs: 50e9, Bytes: 8}))
	// Output: 1.0s
}
