package hw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"skynet/internal/backbone"
	"skynet/internal/tensor"
)

func TestLayerLatencyRoofline(t *testing.T) {
	p := Platform{PeakFLOPS: 100e9, MemBW: 10e9, Efficiency: 1}
	// Compute bound: many MACs, few bytes.
	compute := p.LayerLatency(Cost{MACs: 50e9, Bytes: 1})
	if math.Abs(compute-1.0) > 1e-9 {
		t.Fatalf("compute-bound latency %v, want 1s", compute)
	}
	// Memory bound: few MACs, many bytes.
	mem := p.LayerLatency(Cost{MACs: 1, Bytes: 20e9})
	if math.Abs(mem-2.0) > 1e-9 {
		t.Fatalf("memory-bound latency %v, want 2s", mem)
	}
}

func TestNetLatencyAddsOverhead(t *testing.T) {
	p := Platform{PeakFLOPS: 1e9, MemBW: 1e9, Efficiency: 1, OverheadS: 0.5}
	lat := p.NetLatency([]Cost{{MACs: 5e8, Bytes: 0}}) // 1s compute
	if math.Abs(lat-1.5) > 1e-9 {
		t.Fatalf("latency %v, want 1.5s", lat)
	}
}

func TestUtilizationBounds(t *testing.T) {
	p := TX2
	costs := []Cost{{MACs: 1e9, Bytes: 1e6}, {MACs: 1e3, Bytes: 1e9}}
	u := p.Utilization(costs)
	if u < 0 || u > 1 {
		t.Fatalf("utilization %v out of [0,1]", u)
	}
}

func TestPowerModel(t *testing.T) {
	p := Platform{IdleW: 5, LoadW: 15}
	if p.Power(0) != 5 || p.Power(1) != 15 {
		t.Fatal("power endpoints wrong")
	}
	if p.Power(-1) != 5 || p.Power(2) != 15 {
		t.Fatal("power must clamp utilization")
	}
	if p.Power(0.5) != 10 {
		t.Fatal("power must interpolate")
	}
}

// TestSkyNetFasterThanResNet50OnTX2 checks the latency model preserves the
// paper's central speed ordering.
func TestSkyNetFasterThanResNet50OnTX2(t *testing.T) {
	// The 3× ordering is resolution-independent (MACs of both nets scale
	// together), so -short can probe at quarter area.
	h, w := 160, 320
	if testing.Short() {
		h, w = 80, 160
	}
	rng := rand.New(rand.NewSource(1))
	cfg := backbone.DefaultConfig()
	sky := backbone.SkyNetC(rng, cfg)
	r50 := backbone.ResNet50(rng, cfg)
	x := tensor.New(1, 3, h, w)
	x.RandUniform(rng, 0, 1)
	sky.Forward(x, false)
	skyLat := TX2.GraphLatency(sky)
	x2 := tensor.New(1, 3, h, w)
	x2.RandUniform(rng, 0, 1)
	r50.Forward(x2, false)
	r50Lat := TX2.GraphLatency(r50)
	if skyLat >= r50Lat/3 {
		t.Fatalf("SkyNet latency %.2fms should be well below ResNet-50 %.2fms", skyLat*1e3, r50Lat*1e3)
	}
}

// TestSkyNetTX2LatencyBallpark: the paper's pipelined TX2 design peaks at
// 67.33 FPS with inference as the bottleneck stage, so model inference must
// be ≈ 15ms or less at full resolution.
func TestSkyNetTX2LatencyBallpark(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sky := backbone.SkyNetC(rng, backbone.DefaultConfig())
	x := tensor.New(1, 3, 160, 320)
	x.RandUniform(rng, 0, 1)
	sky.Forward(x, false)
	lat := TX2.GraphLatency(sky)
	if lat > 0.030 || lat < 0.002 {
		t.Fatalf("SkyNet TX2 latency %.2fms outside the plausible 2–30ms band", lat*1e3)
	}
}

func TestEnergyScoreFormula(t *testing.T) {
	// Equal energy → ES = 1 regardless of base.
	if es := EnergyScore(2, 2, 10); math.Abs(es-1) > 1e-12 {
		t.Fatalf("ES at mean = %v, want 1", es)
	}
	// 10× better than mean with x=10 → ES = 1.2.
	if es := EnergyScore(10, 1, 10); math.Abs(es-1.2) > 1e-12 {
		t.Fatalf("ES = %v, want 1.2", es)
	}
	// Extremely bad energy clamps at 0.
	if es := EnergyScore(1, 1e30, 2); es != 0 {
		t.Fatalf("ES = %v, want 0", es)
	}
}

// Property: TS is monotone in IoU and in energy efficiency.
func TestQuickScoreMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		iou := 0.3 + 0.6*rng.Float64()
		e := 0.1 + rng.Float64()
		mean := 0.1 + rng.Float64()
		ts := TotalScore(iou, EnergyScore(mean, e, 2))
		tsBetterIoU := TotalScore(iou+0.05, EnergyScore(mean, e, 2))
		tsBetterE := TotalScore(iou, EnergyScore(mean, e*0.8, 2))
		return tsBetterIoU > ts && tsBetterE >= ts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestScoringReproducesPublishedTables validates our Equations 2–5
// implementation against every published row of Tables 5 and 6, using the
// mean energy calibrated from the winning row of each table.
func TestScoringReproducesPublishedTables(t *testing.T) {
	cases := []struct {
		name    string
		entries []Entry
		x       float64
	}{
		{"GPU2019", GPU2019, GPUTrackX},
		{"GPU2018", GPU2018, GPUTrackX},
		{"FPGA2019", FPGA2019, FPGATrackX},
		{"FPGA2018", FPGA2018, FPGATrackX},
	}
	for _, c := range cases {
		mean := CalibrateMeanEnergy(c.entries[0], c.x)
		scores := ScoreEntries(c.entries, c.x, mean)
		for _, s := range scores {
			if math.Abs(s.TS-s.PublishedTS) > 0.015 {
				t.Errorf("%s %s: computed TS %.3f, published %.3f", c.name, s.Team, s.TS, s.PublishedTS)
			}
		}
	}
}

func TestScoreEntriesDefaultMean(t *testing.T) {
	scores := ScoreEntries(GPU2019, GPUTrackX, 0)
	// With the mean taken over the entries themselves, the most
	// energy-hungry entry must score ES < 1 and the leanest ES > 1.
	var worst, best *Score
	for i := range scores {
		if worst == nil || scores[i].EnergyJ > worst.EnergyJ {
			worst = &scores[i]
		}
		if best == nil || scores[i].EnergyJ < best.EnergyJ {
			best = &scores[i]
		}
	}
	if worst.ES >= 1 || best.ES <= 1 {
		t.Fatalf("ES ordering wrong: best %.3f worst %.3f", best.ES, worst.ES)
	}
}

func TestGraphCostsPerLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	x := tensor.New(1, 3, 32, 32)
	g.Forward(x, false)
	costs := GraphCosts(g)
	// Six bundles → 12 conv layers, plus the head conv.
	if len(costs) != 13 {
		t.Fatalf("got %d costed layers, want 13", len(costs))
	}
	for i, c := range costs {
		if c.MACs <= 0 || c.Bytes <= 0 {
			t.Fatalf("layer %d has non-positive cost %+v", i, c)
		}
	}
}

func TestPlatformString(t *testing.T) {
	if TX2.String() == "" || Ultra96.String() == "" {
		t.Fatal("empty platform description")
	}
}
