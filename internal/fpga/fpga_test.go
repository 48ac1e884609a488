package fpga

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"skynet/internal/backbone"
	"skynet/internal/nn"
)

func TestDSPPerMultFigure2c(t *testing.T) {
	// Figure 2(c): with 16-bit FMs, W15 needs twice the DSPs of W14.
	if DSPPerMult(15, 16) != 2*DSPPerMult(14, 16) {
		t.Fatalf("W15/FM16 = %v, W14/FM16 = %v: the Figure 2(c) halving is missing",
			DSPPerMult(15, 16), DSPPerMult(14, 16))
	}
	// INT8 packing halves DSP cost again.
	if DSPPerMult(8, 8) != 0.5 {
		t.Fatalf("W8/FM8 = %v, want 0.5", DSPPerMult(8, 8))
	}
	// The paper's chosen scheme 1 (W11/FM9) costs one DSP per multiplier.
	if DSPPerMult(11, 9) != 1 {
		t.Fatalf("W11/FM9 = %v, want 1", DSPPerMult(11, 9))
	}
	// Float32 is the most expensive.
	if DSPPerMult(0, 0) <= DSPPerMult(15, 16) {
		t.Fatal("float32 must cost more DSPs than any fixed-point scheme")
	}
}

// Property: DSP cost is monotone non-decreasing in each operand width.
func TestQuickDSPMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 4 + rng.Intn(12)
		fm := 4 + rng.Intn(12)
		return DSPPerMult(w+1, fm) >= DSPPerMult(w, fm) &&
			DSPPerMult(w, fm+1) >= DSPPerMult(w, fm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBRAMBlocksKnownShapes(t *testing.T) {
	// 512×36 fits exactly one block.
	if got := BRAMBlocks(512, 36); got != 1 {
		t.Fatalf("512x36 = %d blocks, want 1", got)
	}
	// 1024×18 also fits one block via the 1K×18 aspect.
	if got := BRAMBlocks(1024, 18); got != 1 {
		t.Fatalf("1024x18 = %d blocks, want 1", got)
	}
	// 1025×18 spills into a second block.
	if got := BRAMBlocks(1025, 18); got != 2 {
		t.Fatalf("1025x18 = %d blocks, want 2", got)
	}
	if BRAMBlocks(0, 18) != 0 {
		t.Fatal("zero depth must cost nothing")
	}
}

// Property: BRAM usage is monotone in depth and width.
func TestQuickBRAMMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(20000)
		w := 1 + rng.Intn(36)
		return BRAMBlocks(d+512, w) >= BRAMBlocks(d, w) &&
			BRAMBlocks(d, w+1) >= BRAMBlocks(d, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoConfigFitsDevice(t *testing.T) {
	for _, dev := range []Device{Ultra96, PynqZ1} {
		for _, bits := range [][2]int{{11, 9}, {8, 8}, {15, 16}, {10, 8}} {
			cfg := AutoConfig(dev, bits[0], bits[1])
			if cfg.DSPCost() > dev.DSP {
				t.Fatalf("%s W%d/FM%d: AutoConfig uses %d DSPs of %d",
					dev.Name, bits[0], bits[1], cfg.DSPCost(), dev.DSP)
			}
			if cfg.Lanes() < 16 {
				t.Fatalf("%s: implausibly small array %d lanes", dev.Name, cfg.Lanes())
			}
		}
	}
}

func TestAutoConfigLanesScaleWithPacking(t *testing.T) {
	wide := AutoConfig(Ultra96, 15, 16) // 2 DSP/mult
	narrow := AutoConfig(Ultra96, 8, 8) // 0.5 DSP/mult
	if narrow.Lanes() <= wide.Lanes() {
		t.Fatal("cheaper multipliers must allow a larger array")
	}
}

func TestEstimateSkyNetUltra96(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := backbone.SkyNetC(rng, backbone.DefaultConfig())
	costs := nn.Costs(g, []int{1, 3, 160, 320})
	ip := AutoConfig(Ultra96, 11, 9) // the paper's scheme 1
	rep := Simulate(costs, Ultra96, ip)
	if !rep.Fits {
		t.Fatalf("SkyNet must fit Ultra96: %s", rep)
	}
	// The calibration is fitted to this operating point: Table 6's 39.25 ms
	// (25.5 FPS), near the paper's 25.05 FPS system.
	if got := fmt.Sprintf("%.2f", rep.LatencyS*1e3); got != "39.25" {
		t.Fatalf("SkyNet C at W11/FM9 schedules in %s ms, want 39.25: %s", got, rep)
	}
	if rep.GOPS > 144 {
		t.Fatalf("achieved GOPS %.1f exceeds the device peak", rep.GOPS)
	}
}

func TestEstimateMonotoneInParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	costs := nn.Costs(g, []int{1, 3, 48, 96})
	small := Simulate(costs, Ultra96, IPConfig{Tm: 4, Tn: 4, WBits: 11, FMBits: 9})
	large := Simulate(costs, Ultra96, IPConfig{Tm: 16, Tn: 16, WBits: 11, FMBits: 9})
	if large.TotalCycles >= small.TotalCycles || large.LatencyS >= small.LatencyS {
		t.Fatalf("16x16 (%d cycles) must beat 4x4 (%d)", large.TotalCycles, small.TotalCycles)
	}
	if large.DSPUsed <= small.DSPUsed {
		t.Fatal("larger array must use more DSPs")
	}
}

// TestEstimateBatchImprovesWeightTraffic: one weight load serves the whole
// batch, so a layer's per-image weight stream shrinks with it.
func TestEstimateBatchImprovesWeightTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	costs := nn.Costs(g, []int{1, 3, 24, 24})
	b1 := Simulate(costs, Ultra96, IPConfig{Tm: 8, Tn: 8, WBits: 11, FMBits: 9, Batch: 1})
	b4 := Simulate(costs, Ultra96, IPConfig{Tm: 8, Tn: 8, WBits: 11, FMBits: 9, Batch: 4})
	var w1, w4 int64
	for i := range b1.Traces {
		w1 += b1.Traces[i].WeightCycles
		w4 += b4.Traces[i].WeightCycles
	}
	if w4 >= w1 {
		t.Fatalf("batching must reduce per-image weight traffic: %d vs %d cycles", w4, w1)
	}
}

func TestFMBufferBlocksQuantized(t *testing.T) {
	// Crossing a power-of-two depth boundary produces a step.
	small := FMBufferBlocks(16*1024, 9, 16)
	big := FMBufferBlocks(16*1024+16*100, 9, 16)
	if big < small {
		t.Fatal("buffer cost must not shrink with more words")
	}
}

// TestFig2bShape: shrinking the input resize factor eventually halves the
// FM buffer BRAM, the Figure 2(b) observation.
func TestFig2bShape(t *testing.T) {
	const c, h, w = 96, 40, 80 // widest SkyNet FM plane at full input
	cost := func(factor float64, bits int) int {
		words := int64(float64(c) * float64(h) * factor * float64(w) * factor)
		return FMBufferBlocks(words, bits, 16) * 2
	}
	full := cost(1.0, 14)
	// The paper reduces the factor from 1.00 to 0.78 and observes half the
	// memory once the factor drops below 0.9.
	reduced := cost(0.78, 14)
	if reduced > full/2 {
		t.Fatalf("resize 0.78 uses %d blocks vs %d at 1.00; expected ≈ halving", reduced, full)
	}
	// More FM bits must never need fewer blocks.
	if cost(1.0, 16) < cost(1.0, 12) {
		t.Fatal("BRAM must be monotone in FM bits")
	}
}

func TestEvaluateTilingFigure9(t *testing.T) {
	reports := EvaluateTiling(96*40*80, 9, 16)
	if len(reports) != 3 {
		t.Fatalf("want 3 schemes, got %d", len(reports))
	}
	b1, b4, tiled := reports[0], reports[1], reports[2]
	// Batching improves weight reuse 4×.
	if b4.WeightLoadsPerImage != 0.25 || tiled.WeightLoadsPerImage != 0.25 ||
		b1.WeightLoadsPerImage != 1 {
		t.Fatal("weight reuse accounting wrong")
	}
	// Tiling must never use more BRAM than four separate buffers.
	if tiled.BRAMBlocks > b4.BRAMBlocks {
		t.Fatalf("tiled buffer (%d) must be ≤ separate buffers (%d)",
			tiled.BRAMBlocks, b4.BRAMBlocks)
	}
	// And the tiled scheme should waste no more buffer space.
	if tiled.BufferWasteFrac > b4.BufferWasteFrac+1e-9 {
		t.Fatalf("tiled waste %.3f exceeds separate-buffer waste %.3f",
			tiled.BufferWasteFrac, b4.BufferWasteFrac)
	}
}

func TestDeviceString(t *testing.T) {
	if Ultra96.String() == "" || PynqZ1.String() == "" {
		t.Fatal("device descriptions must be non-empty")
	}
}

// Out-of-range scheme values must render a placeholder, not panic — the
// String method sits on formatted-output paths.
func TestTilingSchemeStringOutOfRange(t *testing.T) {
	if got := SchemeTiled2x2.String(); got != "batch=4 tiled 2x2" {
		t.Fatalf("in-range name = %q", got)
	}
	for _, s := range []TilingScheme{-1, 3, 99} {
		got := s.String()
		if got == "" {
			t.Fatalf("scheme %d rendered empty", int(s))
		}
		if got != fmt.Sprintf("scheme(%d)", int(s)) {
			t.Fatalf("scheme %d rendered %q, want placeholder", int(s), got)
		}
	}
}

func TestReportPowerCalibration(t *testing.T) {
	// At the SkyNet operating point (≈90% DSP, moderate BRAM) the model
	// must land near the published 7.26 W.
	r := Report{UtilDSP: 0.9, UtilBRAM: 0.6}
	if p := r.PowerW(); p < 6.5 || p > 8.0 {
		t.Fatalf("power %v W outside the calibrated band", p)
	}
	// Monotone in utilization.
	lo := Report{UtilDSP: 0.1, UtilBRAM: 0.1}
	if lo.PowerW() >= r.PowerW() {
		t.Fatal("power must grow with utilization")
	}
}

func TestTilingHalvesSeparateBufferCost(t *testing.T) {
	// With strip buffers, the 2×2 stitch needs half the BRAM of four
	// separate buffers (one dimension doubles instead of four instances).
	reports := EvaluateTiling(61440, 9, 16)
	b4, tiled := reports[1], reports[2]
	if tiled.BRAMBlocks*2 != b4.BRAMBlocks {
		t.Fatalf("tiled %d vs separate %d blocks; expected exact halving",
			tiled.BRAMBlocks, b4.BRAMBlocks)
	}
}

func TestEstimateQuantizationSpeedsUp(t *testing.T) {
	// Narrower operands pack more multipliers into the DSP budget, so an
	// auto-sized 8-bit IP must beat an auto-sized 16-bit one.
	rng := rand.New(rand.NewSource(9))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	costs := nn.Costs(g, []int{1, 3, 48, 96})
	w8 := Simulate(costs, Ultra96, AutoConfig(Ultra96, 8, 8))
	w16 := Simulate(costs, Ultra96, AutoConfig(Ultra96, 15, 16))
	if w8.LatencyS >= w16.LatencyS {
		t.Fatalf("8-bit design (%.2fms) must beat 16-bit (%.2fms)",
			w8.LatencyS*1e3, w16.LatencyS*1e3)
	}
}

// TestOperatingPointCouplesAccuracy checks that a measured IoU rides along
// with the latency/resource report and shows up in the summary.
func TestOperatingPointCouplesAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	costs := nn.Costs(g, []int{1, 3, 32, 64})
	rep := Simulate(costs, Ultra96, AutoConfig(Ultra96, 8, 8))
	p := rep.WithAccuracy(0.512)
	if p.IoU != 0.512 || p.FPS != rep.FPS {
		t.Fatalf("operating point %+v lost fields of %+v", p, rep)
	}
	s := p.String()
	if !strings.Contains(s, "IoU 0.512") || !strings.Contains(s, "W8/FM8") {
		t.Fatalf("operating point summary %q missing accuracy or scheme", s)
	}
}
