package fpga

import (
	"fmt"
	"math"

	"skynet/internal/nn"
)

// IPConfig describes the shared Bundle IP: a Tm×Tn multiplier array
// (output-channel × input-channel parallelism) at given weight and
// feature-map bit widths. Because every SkyNet layer is the same Bundle,
// one such IP serves the whole network (§6.4).
type IPConfig struct {
	Tm, Tn int
	WBits  int
	FMBits int
	// Inefficiency is the cycle inflation of real IP execution over the
	// ideal MACs/lane count (pipeline fill, boundary tiles, control).
	// The default of 2.5 is calibrated so full-size SkyNet on Ultra96
	// lands near the published 25.05 FPS operating point.
	Inefficiency float64
	// Batch is the number of images processed per weight load (the
	// batch + tiling scheme of Figure 9).
	Batch int
}

// Lanes returns the multiplier count of the array.
func (c IPConfig) Lanes() int { return c.Tm * c.Tn }

// DSPCost returns the DSP slices the array consumes at its bit widths.
func (c IPConfig) DSPCost() int {
	return int(math.Ceil(float64(c.Lanes()) * DSPPerMult(c.WBits, c.FMBits)))
}

func (c *IPConfig) normalize() {
	if c.Inefficiency <= 0 {
		c.Inefficiency = 2.5
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
}

// AutoConfig sizes the IP "as large as possible within the available FPGA
// resources" (§4.2): the largest square Tm×Tn array whose DSP cost fits
// within the device budget at the requested bit widths.
func AutoConfig(dev Device, wBits, fmBits int) IPConfig {
	per := DSPPerMult(wBits, fmBits)
	budget := float64(dev.DSP)
	side := int(math.Sqrt(budget / per))
	for side > 1 && float64(side*side)*per > budget {
		side--
	}
	cfg := IPConfig{Tm: side, Tn: side, WBits: wBits, FMBits: fmBits}
	cfg.normalize()
	return cfg
}

// LayerKind distinguishes how a layer maps onto the Tm×Tn array.
type LayerKind int

// Layer mapping classes.
const (
	KindConv LayerKind = iota // standard/point-wise convolution
	KindDW                    // depth-wise convolution (diagonal mapping)
)

// LayerWork is the device-independent description of one layer extracted
// from a graph.
type LayerWork struct {
	Kind       LayerKind
	MACs       int64
	InC, OutC  int
	WeightBits int64 // parameter storage at WBits
	FMWords    int64 // output feature-map elements per image
}

// ExtractWork returns the FPGA-relevant workload of every convolutional row
// of a graph's price table (nn.Costs), one image's.
func ExtractWork(costs []nn.NodeCost, ip IPConfig) []LayerWork {
	var works []LayerWork
	for _, c := range costs {
		var w LayerWork
		switch l := c.Layer.(type) {
		case *nn.Conv2D:
			w = LayerWork{Kind: KindConv, InC: l.InC, OutC: l.OutC,
				WeightBits: int64(l.Weight.W.Len()) * int64(ip.WBits)}
		case *nn.DWConv3:
			w = LayerWork{Kind: KindDW, InC: l.C, OutC: l.C,
				WeightBits: int64(l.Weight.W.Len()) * int64(ip.WBits)}
		default:
			continue
		}
		w.MACs, w.FMWords = c.MACs, 1
		for _, d := range c.Out[1:] {
			w.FMWords *= int64(d)
		}
		works = append(works, w)
	}
	return works
}

// effectiveLanes returns how many of the array's multipliers a layer can
// actually use. A depth-wise convolution exercises only the array's
// diagonal (one input channel per output channel), which is exactly why a
// DW+PW Bundle balances well against FPGA resources: the cheap DW layers
// tolerate the reduced parallelism.
func (c IPConfig) effectiveLanes(w LayerWork) float64 {
	if w.Kind == KindDW {
		e := c.Tm
		if w.OutC < e {
			e = w.OutC
		}
		return float64(e)
	}
	em, en := c.Tm, c.Tn
	if w.OutC < em {
		em = w.OutC
	}
	if w.InC < en {
		en = w.InC
	}
	return float64(em * en)
}

// Report summarizes an accelerator estimate.
type Report struct {
	Device     Device
	IP         IPConfig
	LatencyS   float64 // per image
	FPS        float64
	ComputeS   float64
	MemoryS    float64
	DSPUsed    int
	BRAMUsed   int
	UtilDSP    float64
	UtilBRAM   float64
	GOPS       float64 // achieved
	WeightKB   float64
	MaxFMWords int64
	Fits       bool
}

// Estimate models, from a graph's price table (nn.Costs), end-to-end
// single-image latency and resource usage on the device with the given IP.
// The shared feature-map ping-pong
// buffer receives a fixed share of the device's BRAM (§6.4.1); layers whose
// boundary feature maps fit stay on-chip, larger ones are tiled and
// streamed through DDR. Weight streaming is amortized over the batch.
func Estimate(costs []nn.NodeCost, dev Device, ip IPConfig) Report {
	ip.normalize()
	works := ExtractWork(costs, ip)
	if len(works) == 0 {
		panic("fpga: graph has no convolutional layers")
	}
	// Weight buffer: sized for the largest single layer.
	var maxWBits int64
	for _, w := range works {
		if w.WeightBits > maxWBits {
			maxWBits = w.WeightBits
		}
	}
	wBlocks := BRAMBlocks(int(maxWBits/int64(max(1, ip.WBits))), ip.WBits) * 2 // ping-pong weights
	// FM buffer: the remaining budget, capped at 60% of the device.
	fmBudgetBlocks := dev.BRAM18K*6/10 - wBlocks
	if fmBudgetBlocks < 2*ip.Tn {
		fmBudgetBlocks = 2 * ip.Tn
	}
	// Capacity in FM words of half the budget (the other half is the pong
	// buffer).
	onChipWords := int64(fmBudgetBlocks/2) * 18 * 1024 / int64(ip.FMBits)

	var cycles float64
	var totalMACs, weightBits int64
	var fmTrafficBits int64
	var maxFM int64
	prevWords := works[0].FMWords // input treated as first boundary
	for _, w := range works {
		cycles += float64(w.MACs) / ip.effectiveLanes(w) * ip.Inefficiency
		totalMACs += w.MACs
		weightBits += w.WeightBits
		if w.FMWords > maxFM {
			maxFM = w.FMWords
		}
		// If both sides of a layer boundary fit on chip (times the batch),
		// no DDR round trip is needed; otherwise the FM streams out and
		// back in.
		boundary := (prevWords + w.FMWords) * int64(ip.Batch)
		if boundary > onChipWords {
			fmTrafficBits += 2 * w.FMWords * int64(ip.FMBits) * int64(ip.Batch)
		}
		prevWords = w.FMWords
	}
	compute := cycles / (dev.FreqMHz * 1e6)
	// Input image in + final output out always cross DDR once.
	ioBits := (works[0].FMWords + works[len(works)-1].FMWords) * int64(ip.FMBits)
	memBytes := float64(weightBits)/8/float64(ip.Batch) +
		(float64(fmTrafficBits)/float64(ip.Batch)+float64(ioBits))/8
	memory := memBytes / dev.DDRBandwidth
	lat := compute
	if memory > lat {
		lat = memory
	}
	dsp := ip.DSPCost()
	bram := fmBudgetBlocks + wBlocks
	if bram > dev.BRAM18K {
		bram = dev.BRAM18K
	}
	return Report{
		Device: dev, IP: ip,
		LatencyS: lat, FPS: 1 / lat,
		ComputeS: compute, MemoryS: memory,
		DSPUsed: dsp, BRAMUsed: bram,
		UtilDSP:    float64(dsp) / float64(dev.DSP),
		UtilBRAM:   float64(bram) / float64(dev.BRAM18K),
		GOPS:       2 * float64(totalMACs) / lat / 1e9,
		WeightKB:   float64(weightBits) / 8 / 1024,
		MaxFMWords: maxFM,
		Fits:       dsp <= dev.DSP && bram <= dev.BRAM18K,
	}
}

// FMBufferBlocks returns the BRAM18K primitives for a feature-map buffer of
// `words` elements at `bits` per element, partitioned into `banks` parallel
// banks (one per input-channel lane). Bank depth is rounded up to a power
// of two — HLS address decoding slices address bits, so buffer capacity
// moves in octaves. This is the mechanism behind Figure 2(b): reducing the
// input resize factor below ≈0.9 drops the required depth under the next
// power-of-two boundary and halves the BRAM cost.
func FMBufferBlocks(words int64, bits, banks int) int {
	if banks < 1 {
		banks = 1
	}
	depth := nextPow2(int(math.Ceil(float64(words) / float64(banks))))
	return banks * BRAMBlocks(depth, bits)
}

func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// PowerW estimates board power from resource utilization: a static board
// term plus dynamic terms proportional to DSP and BRAM activity. The
// coefficients are calibrated to the published SkyNet Ultra96 operating
// point (7.26 W at ~90% DSP utilization, Table 6).
func (r Report) PowerW() float64 {
	return 4.2 + 2.6*r.UtilDSP + 1.2*r.UtilBRAM
}

// String renders a one-line report summary.
func (r Report) String() string {
	return fmt.Sprintf("%s Tm=%d Tn=%d W%d/FM%d: %.2fms (%.1f FPS, %.1f GOPS), DSP %d/%d, BRAM %d/%d",
		r.Device.Name, r.IP.Tm, r.IP.Tn, r.IP.WBits, r.IP.FMBits,
		r.LatencyS*1e3, r.FPS, r.GOPS, r.DSPUsed, r.Device.DSP, r.BRAMUsed, r.Device.BRAM18K)
}

// OperatingPoint couples a latency/resource estimate with the measured
// accuracy of the number format it assumes — the full triple a deployment
// decision ranks on. The estimator alone can only price a bit width in
// DSPs and cycles; pairing it with a real measured IoU (e.g. from the int8
// engine in internal/quant evaluated via detect.MeanIoU) closes the loop
// the paper's Table 6/7 selection process describes.
type OperatingPoint struct {
	Report
	IoU float64
}

// WithAccuracy attaches a measured validation IoU to the estimate.
func (r Report) WithAccuracy(iou float64) OperatingPoint {
	return OperatingPoint{Report: r, IoU: iou}
}

// String appends the measured accuracy to the estimate summary.
func (p OperatingPoint) String() string {
	return fmt.Sprintf("%s, IoU %.3f", p.Report.String(), p.IoU)
}
