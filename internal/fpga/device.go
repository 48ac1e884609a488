// Package fpga models the paper's FPGA deployment path (§6.4): an IP-based
// accelerator in which one configurable Bundle IP is shared by every SkyNet
// layer, sized as large as the device's DSP budget allows (the Hao et al.,
// 2019 mapping strategy). The model covers DSP cost as a function of
// weight/feature-map bit widths (the packing behaviour behind Figure 2(c)),
// BRAM banking with the power-of-two depth granularity behind Figure 2(b),
// the batch + tiling buffer scheme of Figure 9, and one performance model:
// a tile-level schedule of every layer, calibrated once (Simulate), whose
// Report prices every FPGA latency and resource count in the repository.
package fpga

import (
	"fmt"
	"math"
)

// Device describes an FPGA part's resource budget.
type Device struct {
	Name    string
	DSP     int // DSP48-class slices
	BRAM18K int // 18 Kb block-RAM primitives
	LUTk    int // thousands of LUTs
	FreqMHz float64
	// DDRBandwidth is the off-chip memory bandwidth in bytes/s.
	DDRBandwidth float64
}

// The contest devices. Ultra96 carries a Zynq UltraScale+ ZU3EG
// (360 DSP48E2, 216 BRAM36 = 432 BRAM18K); Pynq-Z1 a Zynq-7020
// (220 DSP48E1, 280 BRAM18K).
var (
	Ultra96 = Device{Name: "Ultra96", DSP: 360, BRAM18K: 432, LUTk: 71,
		FreqMHz: 200, DDRBandwidth: 4.3e9}
	PynqZ1 = Device{Name: "Pynq-Z1", DSP: 220, BRAM18K: 280, LUTk: 53,
		FreqMHz: 142, DDRBandwidth: 2.1e9}
)

// DSPPerMult returns the DSP slices consumed by one W×FM multiplier at the
// given bit widths. The table captures DSP48 behaviour as the paper
// observes it in Figure 2(c): once the combined operand width exceeds the
// slice's native multiplier, a second cascaded slice is needed (so FM16
// weights going from W15 to W14 halves the DSP count), while ≤8-bit
// operands allow two multipliers to share one slice (double-pumping /
// INT8 packing, the optimization several contest entries used).
func DSPPerMult(wBits, fmBits int) float64 {
	switch {
	case wBits <= 0 || fmBits <= 0: // float32 → handled as 32-bit
		return 4
	case wBits+fmBits >= 31:
		return 2
	case wBits <= 8 && fmBits <= 8:
		return 0.5
	default:
		return 1
	}
}

// bramShapes are the width×depth aspect configurations of one 18 Kb block.
var bramShapes = []struct{ depth, width int }{
	{512, 36}, {1024, 18}, {2048, 9}, {4096, 4}, {8192, 2}, {16384, 1},
}

// BRAMBlocks returns the number of 18 Kb BRAM primitives needed for one
// memory of `depth` words × `widthBits`, choosing the cheapest legal
// aspect configuration. Depth is consumed in native-granularity chunks, so
// usage moves in steps — the mechanism behind Figure 2(b)'s plateaus.
func BRAMBlocks(depth, widthBits int) int {
	if depth <= 0 || widthBits <= 0 {
		return 0
	}
	best := math.MaxInt32
	for _, s := range bramShapes {
		blocks := ceilDiv(depth, s.depth) * ceilDiv(widthBits, s.width)
		if blocks < best {
			best = blocks
		}
	}
	return best
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// String implements fmt.Stringer.
func (d Device) String() string {
	return fmt.Sprintf("%s (%d DSP, %d BRAM18K, %dk LUT @%.0fMHz)",
		d.Name, d.DSP, d.BRAM18K, d.LUTk, d.FreqMHz)
}
