package fpga

import (
	"fmt"
	"strings"

	"skynet/internal/nn"
)

// This file is a tile-level simulator of the shared-IP accelerator: it
// schedules every convolution onto the Tm×Tn multiplier array tile by tile
// (output-channel × input-channel × spatial), streams weights through a
// double-buffered DMA channel that overlaps compute, and accounts cycles
// per layer. Where Estimate is the calibrated analytical model (its
// Inefficiency factor absorbs everything the paper's real system lost),
// Simulate derives the schedule organically and therefore bounds the
// achievable ideal: pipeline-fill overheads, tile-quantization waste and
// the depth-wise diagonal mapping all emerge from the schedule itself.

// LayerTrace is the simulated execution record of one layer.
type LayerTrace struct {
	Index int
	Name  string
	Kind  LayerKind
	// Tile structure.
	TmTiles, TnTiles int
	SpatialPositions int64
	KernelTaps       int64 // K² (1 for point-wise)
	// Cycle accounting.
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

// Cycles returns the layer's simulated wall cycles.
func (t LayerTrace) Cycles() int64 { return t.EndCycle - t.StartCycle }

// SimReport is the outcome of one simulated inference.
type SimReport struct {
	Device      Device
	IP          IPConfig
	Traces      []LayerTrace
	TotalCycles int64
	LatencyS    float64
	FPS         float64
	// AvgUtilization is MAC-weighted array utilization.
	AvgUtilization float64
	// TotalMACs actually executed.
	TotalMACs int64
}

// fill cycles for one pass of the array pipeline (load/drain).
const tileFillCycles = 32

// Simulate runs the tile-level schedule of one image, from a graph's price
// table (nn.Costs), on the device with the given IP.
func Simulate(costs []nn.NodeCost, dev Device, ip IPConfig) SimReport {
	ip.normalize()
	works := ExtractWork(costs, ip)
	if len(works) == 0 {
		panic("fpga: Simulate needs a graph with convolutional layers")
	}
	// Bits the DDR channel can deliver per accelerator cycle.
	bitsPerCycle := dev.DDRBandwidth * 8 / (dev.FreqMHz * 1e6)
	// On-chip FM capacity, mirroring Estimate's budget split.
	var maxWBits int64
	for _, w := range works {
		if w.WeightBits > maxWBits {
			maxWBits = w.WeightBits
		}
	}
	wBlocks := BRAMBlocks(int(maxWBits/int64(max(1, ip.WBits))), ip.WBits) * 2
	fmBudgetBlocks := dev.BRAM18K*6/10 - wBlocks
	if fmBudgetBlocks < 2*ip.Tn {
		fmBudgetBlocks = 2 * ip.Tn
	}
	onChipWords := int64(fmBudgetBlocks/2) * 18 * 1024 / int64(ip.FMBits)

	rep := SimReport{Device: dev, IP: ip}
	var cycle int64
	var weightedUtil float64
	prevWords := works[0].FMWords
	for idx, w := range works {
		tr := LayerTrace{Index: idx, StartCycle: cycle, Kind: w.Kind}
		switch w.Kind {
		case KindDW:
			tr.Name = fmt.Sprintf("dwconv[%d]", idx)
			tr.TmTiles = ceilDiv(w.OutC, ip.Tm)
			tr.TnTiles = 1
			// MACs = C × K² × P; channels map across Tm, so one tile pass
			// covers min(Tm, C) channels at one MAC each per tap.
			chPerTile := min64(int64(ip.Tm), int64(w.OutC))
			tr.KernelTaps = w.MACs / (int64(w.OutC))
			tr.SpatialPositions = tr.KernelTaps // P×K² combined; keep product
			tr.ComputeCycles = int64(tr.TmTiles) * tr.KernelTaps
			util := float64(chPerTile) / float64(ip.Lanes())
			tr.Utilization = util
		default:
			tr.Name = fmt.Sprintf("conv[%d]", idx)
			tr.TmTiles = ceilDiv(w.OutC, ip.Tm)
			tr.TnTiles = ceilDiv(w.InC, ip.Tn)
			perPos := w.MACs / int64(w.InC) / int64(w.OutC) // P × K²
			tr.KernelTaps = perPos
			tr.SpatialPositions = perPos
			tr.ComputeCycles = int64(tr.TmTiles) * int64(tr.TnTiles) * perPos
			// Utilization: edge tiles run partially empty.
			ideal := float64(w.MACs) / float64(ip.Lanes())
			tr.Utilization = ideal / float64(tr.ComputeCycles)
		}
		tr.FillCycles = int64(tr.TmTiles*tr.TnTiles) * tileFillCycles
		tr.WeightCycles = int64(float64(w.WeightBits) / bitsPerCycle / float64(ip.Batch))
		// FM spill: the layer boundary streams through DDR when it cannot
		// stay resident (same rule as Estimate).
		if (prevWords+w.FMWords)*int64(ip.Batch) > onChipWords {
			tr.FMCycles = int64(float64(2*w.FMWords*int64(ip.FMBits)) / bitsPerCycle)
		}
		prevWords = w.FMWords

		// Double buffering hides DMA behind compute; the excess stalls.
		dma := tr.WeightCycles + tr.FMCycles
		busy := tr.ComputeCycles + tr.FillCycles
		if dma > busy {
			tr.StallCycles = dma - busy
		}
		cycle += busy + tr.StallCycles
		tr.EndCycle = cycle
		weightedUtil += tr.Utilization * float64(w.MACs)
		rep.TotalMACs += w.MACs
		rep.Traces = append(rep.Traces, tr)
	}
	rep.TotalCycles = cycle
	rep.LatencyS = float64(cycle) / (dev.FreqMHz * 1e6)
	rep.FPS = 1 / rep.LatencyS
	if rep.TotalMACs > 0 {
		rep.AvgUtilization = weightedUtil / float64(rep.TotalMACs)
	}
	return rep
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Timeline renders a per-layer cycle breakdown table.
func (r SimReport) Timeline() string {
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
