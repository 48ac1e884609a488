package fpga_test

// An external test package: it builds SkyNet through backbone, which
// imports fpga by way of bundle.

import (
	"math/rand"
	"strings"
	"testing"

	"skynet/internal/backbone"
	. "skynet/internal/fpga"
	"skynet/internal/nn"
)

func simSkyNet(t *testing.T, width float64, h, w int) Report {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	g := backbone.SkyNetC(rng, backbone.Config{Width: width, InC: 3, HeadChannels: 10, ReLU6: true})
	return Simulate(nn.Costs(g, []int{1, 3, h, w}), Ultra96, AutoConfig(Ultra96, 11, 9))
}

func TestSimulateSkyNetFullSize(t *testing.T) {
	sim := simSkyNet(t, 1, 160, 320)
	if sim.TotalCycles <= 0 || sim.LatencyS <= 0 {
		t.Fatal("empty simulation")
	}
	// 13 convolutional layers of SkyNet C.
	if len(sim.Traces) != 13 {
		t.Fatalf("traces %d, want 13", len(sim.Traces))
	}
	// Cycle accounting must be self-consistent.
	var prevEnd int64
	for _, tr := range sim.Traces {
		if tr.StartCycle != prevEnd {
			t.Fatalf("layer %d starts at %d, previous ended at %d", tr.Index, tr.StartCycle, prevEnd)
		}
		if tr.EndCycle-tr.StartCycle != tr.ComputeCycles+tr.FillCycles+tr.StallCycles {
			t.Fatalf("layer %d cycle identity violated", tr.Index)
		}
		prevEnd = tr.EndCycle
	}
	if prevEnd != sim.TotalCycles {
		t.Fatal("total cycles must equal the last layer's end")
	}
}

// TestReportTotalsAreTheLayerCycleSum: latency, FPS and GOPS are exactly the
// layers' cycles over the device clock; nothing is priced beside the
// schedule.
func TestReportTotalsAreTheLayerCycleSum(t *testing.T) {
	for _, batch := range []int{1, 4} {
		rng := rand.New(rand.NewSource(5))
		g := backbone.SkyNetC(rng, backbone.Config{Width: 0.5, InC: 3, HeadChannels: 10, ReLU6: true})
		ip := AutoConfig(PynqZ1, 8, 8)
		ip.Batch = batch
		rep := Simulate(nn.Costs(g, []int{1, 3, 96, 192}), PynqZ1, ip)
		var cycles, macs int64
		for _, tr := range rep.Traces {
			cycles += tr.ComputeCycles + tr.FillCycles + tr.StallCycles
		}
		for _, c := range nn.Costs(g, []int{1, 3, 96, 192}) {
			macs += c.MACs
		}
		lat := float64(cycles) / (PynqZ1.FreqMHz * 1e6)
		if rep.TotalCycles != cycles || rep.LatencyS != lat || rep.FPS != 1/lat ||
			rep.GOPS != 2*float64(macs)/lat/1e9 {
			t.Fatalf("batch %d: report %d cycles, %v s, %v FPS, %v GOPS; layers sum to %d cycles = %v s",
				batch, rep.TotalCycles, rep.LatencyS, rep.FPS, rep.GOPS, cycles, lat)
		}
	}
}

func TestSimulateUtilizationProperties(t *testing.T) {
	sim := simSkyNet(t, 1, 160, 320)
	var dwUtil, pwUtil float64
	var dwN, pwN int
	for _, tr := range sim.Traces {
		if tr.Utilization <= 0 || tr.Utilization > 1+1e-9 {
			t.Fatalf("layer %d utilization %v out of (0,1]", tr.Index, tr.Utilization)
		}
		if tr.Kind == KindDW {
			dwUtil += tr.Utilization
			dwN++
		} else {
			pwUtil += tr.Utilization
			pwN++
		}
	}
	// The diagonal mapping makes depth-wise layers far less efficient than
	// point-wise ones — the structural reason a DW+PW Bundle must keep DW
	// layers cheap.
	if dwUtil/float64(dwN) >= pwUtil/float64(pwN) {
		t.Fatalf("DW utilization %.3f should be below PW %.3f",
			dwUtil/float64(dwN), pwUtil/float64(pwN))
	}
	if sim.AvgUtilization <= 0 || sim.AvgUtilization > 1 {
		t.Fatalf("avg utilization %v", sim.AvgUtilization)
	}
}

func TestSimulateMACConservation(t *testing.T) {
	// The simulator must execute exactly the network's MACs.
	rng := rand.New(rand.NewSource(2))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	costs := nn.Costs(g, []int{1, 3, 48, 96})
	var macs int64
	for _, c := range costs {
		macs += c.MACs
	}
	sim := Simulate(costs, Ultra96, AutoConfig(Ultra96, 11, 9))
	if sim.TotalMACs != macs {
		t.Fatalf("simulated %d MACs, graph has %d", sim.TotalMACs, macs)
	}
}

func TestSimulateBatchReducesWeightStalls(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	costs := nn.Costs(g, []int{1, 3, 24, 24})
	stalls := func(batch int) int64 {
		sim := Simulate(costs, Ultra96, IPConfig{Tm: 18, Tn: 18, WBits: 11, FMBits: 9, Batch: batch})
		var s int64
		for _, tr := range sim.Traces {
			s += tr.StallCycles
		}
		return s
	}
	if stalls(4) > stalls(1) {
		t.Fatal("batching must not increase weight-stream stalls")
	}
}

func TestSimulateTimelineRenders(t *testing.T) {
	out := simSkyNet(t, 0.25, 48, 96).Timeline()
	if !strings.Contains(out, "dwconv[0]") || !strings.Contains(out, "total") {
		t.Fatalf("timeline missing content:\n%s", out)
	}
}
