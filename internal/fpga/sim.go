package fpga

import (
	"fmt"
	"math"
	"strings"

	"skynet/internal/nn"
)

// This file is the accelerator's one performance model: a tile-level
// schedule of the shared IP. It maps every convolution onto the Tm×Tn
// multiplier array tile by tile (output-channel × input-channel × spatial),
// streams weights and spilled feature maps through a double-buffered DMA
// channel that overlaps compute, and accounts cycles per layer. Pipeline
// fill, tile-quantization waste and the depth-wise diagonal mapping emerge
// from the schedule itself; one constant, cycleScale, calibrates what the
// schedule does not see (control, address generation, boundary handling).

// LayerTrace is the scheduled execution record of one layer.
type LayerTrace struct {
	Index int
	Name  string
	Kind  LayerKind
	// Tile structure.
	TmTiles, TnTiles int
	// Cycle accounting; StartCycle + Compute + Fill + Stall = EndCycle.
	ComputeCycles int64
	WeightCycles  int64 // weight-stream DMA demand
	FMCycles      int64 // off-chip feature-map traffic (when spilled)
	FillCycles    int64 // pipeline fill per tile pass
	StallCycles   int64 // DMA demand not hidden behind compute
	StartCycle    int64
	EndCycle      int64
	// Utilization is the fraction of array multipliers doing useful MACs
	// while the layer computes.
	Utilization float64
}

// Report is one image's inference on the accelerator: the schedule's
// per-layer traces, their totals, and the IP's resource count.
type Report struct {
	Device      Device
	IP          IPConfig
	Traces      []LayerTrace
	TotalCycles int64
	LatencyS    float64 // per image: TotalCycles at the device clock
	FPS         float64
	GOPS        float64 // achieved
	TotalMACs   int64
	// AvgUtilization is MAC-weighted array utilization.
	AvgUtilization float64
	DSPUsed        int
	BRAMUsed       int
	UtilDSP        float64
	UtilBRAM       float64
	WeightKB       float64
	MaxFMWords     int64
	Fits           bool
}

const (
	// tileFillCycles is the pipeline fill (load/drain) of one pass of the
	// array.
	tileFillCycles = 32
	// cycleScale stretches every layer's compute and fill cycles. It is
	// fitted once, so that full-size SkyNet C at W11/FM9 and 160×320 on
	// Ultra96 keeps its 39.25 ms (25.5 FPS) Table 6 operating point.
	cycleScale = 2.2862
)

// scaled returns the calibrated count of c schedule cycles.
func scaled(c int64) int64 { return int64(math.Round(float64(c) * cycleScale)) }

// Simulate runs the tile-level schedule of one image, from a graph's price
// table (nn.Costs), on the device with the given IP. The BRAM is split as
// the shared IP does (§6.4.1): a ping-pong weight buffer sized for the
// largest layer, and the rest of 60 % of the device (at least two blocks
// per input lane) for the feature-map ping-pong buffer. A layer boundary
// whose two feature maps (times the batch) fit in one half stays on chip;
// a larger one streams out and back in through DDR. Weight streaming is
// amortized over the batch.
func Simulate(costs []nn.NodeCost, dev Device, ip IPConfig) Report {
	if ip.Batch <= 0 {
		ip.Batch = 1
	}
	works := extractWork(costs, ip)
	if len(works) == 0 {
		panic("fpga: Simulate needs a graph with convolutional layers")
	}
	var maxWBits, weightBits int64
	for _, w := range works {
		maxWBits = max(maxWBits, w.weightBits)
		weightBits += w.weightBits
	}
	wBlocks := BRAMBlocks(int(maxWBits/int64(ip.WBits)), ip.WBits) * 2
	fmBlocks := max(dev.BRAM18K*6/10-wBlocks, 2*ip.Tn)
	onChipWords := int64(fmBlocks/2) * 18 * 1024 / int64(ip.FMBits)
	// Bits the DDR channel can deliver per accelerator cycle.
	bitsPerCycle := dev.DDRBandwidth * 8 / (dev.FreqMHz * 1e6)

	dsp, bram := ip.DSPCost(), min(fmBlocks+wBlocks, dev.BRAM18K)
	rep := Report{Device: dev, IP: ip, DSPUsed: dsp, BRAMUsed: bram,
		UtilDSP:  float64(dsp) / float64(dev.DSP),
		UtilBRAM: float64(bram) / float64(dev.BRAM18K),
		WeightKB: float64(weightBits) / 8 / 1024,
		Fits:     dsp <= dev.DSP && bram <= dev.BRAM18K,
	}
	var cycle int64
	var weightedUtil float64
	prevWords := works[0].fmWords // the input is the first boundary
	for idx, w := range works {
		tr := LayerTrace{Index: idx, StartCycle: cycle, Kind: w.kind,
			TmTiles: ceilDiv(w.outC, ip.Tm), TnTiles: 1}
		if w.kind == KindDW {
			// Channels map across Tm along the array's diagonal: a tile
			// pass covers min(Tm, C) channels at one MAC each per
			// position and tap (MACs = C × P × K²).
			tr.Name = fmt.Sprintf("dwconv[%d]", idx)
			tr.ComputeCycles = int64(tr.TmTiles) * (w.macs / int64(w.outC))
		} else {
			tr.Name = fmt.Sprintf("conv[%d]", idx)
			tr.TnTiles = ceilDiv(w.inC, ip.Tn)
			tr.ComputeCycles = int64(tr.TmTiles*tr.TnTiles) * (w.macs / int64(w.inC) / int64(w.outC))
		}
		tr.ComputeCycles = scaled(tr.ComputeCycles)
		tr.FillCycles = scaled(int64(tr.TmTiles*tr.TnTiles) * tileFillCycles)
		tr.Utilization = float64(w.macs) / float64(ip.Lanes()) / float64(tr.ComputeCycles)
		tr.WeightCycles = int64(float64(w.weightBits) / bitsPerCycle / float64(ip.Batch))
		if (prevWords+w.fmWords)*int64(ip.Batch) > onChipWords {
			tr.FMCycles = int64(float64(2*w.fmWords*int64(ip.FMBits)) / bitsPerCycle)
		}
		prevWords = w.fmWords
		rep.MaxFMWords = max(rep.MaxFMWords, w.fmWords)

		// Double buffering hides DMA behind compute; the excess stalls.
		busy := tr.ComputeCycles + tr.FillCycles
		tr.StallCycles = max(0, tr.WeightCycles+tr.FMCycles-busy)
		cycle += busy + tr.StallCycles
		tr.EndCycle = cycle
		weightedUtil += tr.Utilization * float64(w.macs)
		rep.TotalMACs += w.macs
		rep.Traces = append(rep.Traces, tr)
	}
	rep.TotalCycles = cycle
	rep.LatencyS = float64(cycle) / (dev.FreqMHz * 1e6)
	rep.FPS = 1 / rep.LatencyS
	rep.GOPS = 2 * float64(rep.TotalMACs) / rep.LatencyS / 1e9
	rep.AvgUtilization = weightedUtil / float64(rep.TotalMACs)
	return rep
}

// Timeline renders a per-layer cycle breakdown table.
func (r Report) Timeline() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %10s %10s %10s %8s %8s %6s\n",
		"layer", "compute", "weights", "fmspill", "fill", "stall", "util")
	for _, t := range r.Traces {
		fmt.Fprintf(&sb, "%-12s %10d %10d %10d %8d %8d %5.0f%%\n",
			t.Name, t.ComputeCycles, t.WeightCycles, t.FMCycles,
			t.FillCycles, t.StallCycles, t.Utilization*100)
	}
	fmt.Fprintf(&sb, "total %d cycles = %.2f ms (%.1f FPS), avg utilization %.0f%%\n",
		r.TotalCycles, r.LatencyS*1e3, r.FPS, r.AvgUtilization*100)
	return sb.String()
}
