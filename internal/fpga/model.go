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
	return IPConfig{Tm: side, Tn: side, WBits: wBits, FMBits: fmBits, Batch: 1}
}

// LayerKind distinguishes how a layer maps onto the Tm×Tn array.
type LayerKind int

// Layer mapping classes.
const (
	KindConv LayerKind = iota // standard/point-wise convolution
	KindDW                    // depth-wise convolution (diagonal mapping)
)

// layerWork is the device-independent description of one layer of a
// graph's price table.
type layerWork struct {
	kind       LayerKind
	macs       int64
	inC, outC  int
	weightBits int64 // parameter storage at WBits
	fmWords    int64 // output feature-map elements per image
}

// extractWork returns the FPGA-relevant workload of every convolutional row
// of a graph's price table (nn.Costs), one image's.
func extractWork(costs []nn.NodeCost, ip IPConfig) []layerWork {
	var works []layerWork
	for _, c := range costs {
		var w layerWork
		switch l := c.Layer.(type) {
		case *nn.Conv2D:
			w = layerWork{kind: KindConv, inC: l.InC, outC: l.OutC,
				weightBits: int64(l.Weight.W.Len()) * int64(ip.WBits)}
		case *nn.DWConv3:
			w = layerWork{kind: KindDW, inC: l.C, outC: l.C,
				weightBits: int64(l.Weight.W.Len()) * int64(ip.WBits)}
		default:
			continue
		}
		w.macs, w.fmWords = c.MACs, 1
		for _, d := range c.Out[1:] {
			w.fmWords *= int64(d)
		}
		works = append(works, w)
	}
	return works
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

// OperatingPoint couples a latency/resource report with the measured
// accuracy of the number format it assumes — the full triple a deployment
// decision ranks on. The schedule alone can only price a bit width in
// DSPs and cycles; pairing it with a real measured IoU (e.g. from the int8
// engine in internal/quant evaluated via detect.MeanIoU) closes the loop
// the paper's Table 6/7 selection process describes.
type OperatingPoint struct {
	Report
	IoU float64
}

// WithAccuracy attaches a measured validation IoU to the report.
func (r Report) WithAccuracy(iou float64) OperatingPoint {
	return OperatingPoint{Report: r, IoU: iou}
}

// String appends the measured accuracy to the report summary.
func (p OperatingPoint) String() string {
	return fmt.Sprintf("%s, IoU %.3f", p.Report.String(), p.IoU)
}
