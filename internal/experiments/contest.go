package experiments

import (
	"fmt"
	"math/rand"

	"skynet/internal/backbone"
	"skynet/internal/fpga"
	"skynet/internal/hw"
	"skynet/internal/nn"
	"skynet/internal/pipeline"
)

// simulateGPUEntry produces our SkyNet GPU-track row from the simulators:
// TX2 roofline inference latency drives the pipelined system FPS, the
// power model supplies watts, and the accuracy column carries the paper's
// hidden-test IoU alongside our synthetic-data IoU from Table 4's
// training.
func simulateGPUEntry(o Options) (hw.Entry, []float64) {
	rng := rand.New(rand.NewSource(o.seed()))
	g := backbone.SkyNetC(rng, backbone.DefaultConfig())
	costs := nn.Costs(g, []int{1, 3, 160, 320})
	inferS := hw.TX2.GraphLatency(costs)
	profile := []float64{0.013, inferS, 0.010}
	fps := pipeline.ThroughputFPS(profile)
	util := hw.TX2.Utilization(costs)
	power := hw.TX2.Power(util)
	return hw.Entry{Team: "SkyNet (our sim)", Year: 2019, IoU: 0.731, FPS: fps, PowerW: power}, profile
}

// simulateFPGAEntry produces our SkyNet FPGA-track row from the FPGA IP
// model with the paper's chosen quantization (scheme 1, W11/FM9).
func simulateFPGAEntry(o Options) (hw.Entry, fpga.Report) {
	rng := rand.New(rand.NewSource(o.seed()))
	g := backbone.SkyNetC(rng, backbone.DefaultConfig())
	ip := fpga.AutoConfig(fpga.Ultra96, 11, 9)
	ip.Batch = 4 // the §6.4.1 batch+tiling scheme
	rep := fpga.Estimate(nn.Costs(g, []int{1, 3, 160, 320}), fpga.Ultra96, ip)
	// The system pipeline caps throughput at the slowest stage.
	profile := pipeline.FPGAStageProfile(rep.LatencyS)
	fps := pipeline.ThroughputFPS(profile)
	power := rep.PowerW()
	return hw.Entry{Team: "SkyNet (our sim)", Year: 2019, IoU: 0.716, FPS: fps, PowerW: power}, rep
}

func contestTable(id, title string, entries []hw.Entry, x float64, sim hw.Entry, notes []string) Table {
	mean := hw.CalibrateMeanEnergy(entries[0], x)
	t := Table{
		ID:     id,
		Title:  title,
		Header: []string{"Team", "IoU", "FPS", "Power (W)", "Total score", "Published TS"},
		Notes:  notes,
	}
	add := func(s hw.Score, published string) {
		t.Rows = append(t.Rows, []string{
			s.Team, f3(s.IoU), f2(s.FPS), f2(s.PowerW), f3(s.TS), published,
		})
	}
	for _, s := range hw.ScoreEntries([]hw.Entry{sim}, x, mean) {
		add(s, "-")
	}
	for _, s := range hw.ScoreEntries(entries, x, mean) {
		add(s, f3(s.PublishedTS))
	}
	return t
}

// Table5 reproduces the GPU-track final results: the published top-3 rows
// re-scored by our Equations 2–5 implementation, plus our simulated SkyNet
// row (FPS from the roofline + pipeline, power from the utilization
// model).
func Table5(o Options) Table {
	sim, profile := simulateGPUEntry(o)
	notes := []string{
		fmt.Sprintf("simulated TX2 pipeline: %s -> %.2f FPS", pipeline.StageBreakdown(profile), sim.FPS),
		"IoU column for the sim row carries the paper's hidden-test value; see table4 for our trained accuracy",
		"scores use the contest mean energy calibrated from the published SkyNet row",
	}
	t := contestTable("Table 5", "DAC-SDC GPU track (TX2, hidden 50k test set)",
		hw.GPU2019, hw.GPUTrackX, sim, notes)
	// Append the 2018 rows, re-scored within their own year.
	mean18 := hw.CalibrateMeanEnergy(hw.GPU2018[0], hw.GPUTrackX)
	for _, s := range hw.ScoreEntries(hw.GPU2018, hw.GPUTrackX, mean18) {
		t.Rows = append(t.Rows, []string{s.Team + " ('18)", f3(s.IoU), f2(s.FPS), f2(s.PowerW), f3(s.TS), f3(s.PublishedTS)})
	}
	return t
}

// Table6 reproduces the FPGA-track final results analogously, with the
// SkyNet row from the Ultra96 IP model.
func Table6(o Options) Table {
	sim, rep := simulateFPGAEntry(o)
	notes := []string{
		fmt.Sprintf("simulated accelerator: %s", rep),
		"scores use the contest mean energy calibrated from the published SkyNet row",
	}
	t := contestTable("Table 6", "DAC-SDC FPGA track (Ultra96, hidden 50k test set)",
		hw.FPGA2019, hw.FPGATrackX, sim, notes)
	mean18 := hw.CalibrateMeanEnergy(hw.FPGA2018[0], hw.FPGATrackX)
	for _, s := range hw.ScoreEntries(hw.FPGA2018, hw.FPGATrackX, mean18) {
		t.Rows = append(t.Rows, []string{s.Team + " ('18)", f3(s.IoU), f2(s.FPS), f2(s.PowerW), f3(s.TS), f3(s.PublishedTS)})
	}
	return t
}

// Fig10 reproduces the system-level pipelining study: serial vs pipelined
// makespans and the resulting speedup/throughput on both platforms.
func Fig10(o Options) Table {
	const n = 1000
	t := Table{
		ID:     "Figure 10",
		Title:  "Task partitioning and pipelining (per-image steady state)",
		Header: []string{"Platform", "Design", "Stage profile", "FPS", "Speedup"},
	}
	serialTX2 := pipeline.SerialMakespan(pipeline.TX2SerialProfile, 1)
	t.Rows = append(t.Rows, []string{"TX2", "serial (4 steps)",
		pipeline.StageBreakdown(pipeline.TX2SerialProfile), f2(1 / serialTX2), "1.00x"})
	spTX2 := pipeline.SystemSpeedup(pipeline.TX2SerialProfile, pipeline.TX2StageProfile, n)
	t.Rows = append(t.Rows, []string{"TX2", "pipelined (3 stages)",
		pipeline.StageBreakdown(pipeline.TX2StageProfile),
		f2(pipeline.ThroughputFPS(pipeline.TX2StageProfile)), f2(spTX2) + "x"})

	_, rep := simulateFPGAEntry(o)
	fpgaProfile := pipeline.FPGAStageProfile(rep.LatencyS)
	serialFPGA := pipeline.SerialMakespan(fpgaProfile, 1)
	t.Rows = append(t.Rows, []string{"Ultra96", "serial",
		pipeline.StageBreakdown(fpgaProfile), f2(1 / serialFPGA), "1.00x"})
	spF := pipeline.SystemSpeedup(fpgaProfile, fpgaProfile, n)
	t.Rows = append(t.Rows, []string{"Ultra96", "pipelined (CPU+FPGA partition)",
		pipeline.StageBreakdown(fpgaProfile),
		f2(pipeline.ThroughputFPS(fpgaProfile)), f2(spF) + "x"})
	t.Notes = append(t.Notes,
		"paper: 3.35x system speedup and 67.33 FPS on TX2; 25.05 FPS on Ultra96")
	return t
}
