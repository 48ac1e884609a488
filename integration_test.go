package skynet_test

// Integration tests: end-to-end scenarios crossing module boundaries, at
// budgets small enough for the regular test run. Each test exercises a
// realistic user journey rather than a single package.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"skynet/internal/backbone"
	"skynet/internal/bundle"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/fpga"
	"skynet/internal/hw"
	"skynet/internal/modelspec"
	"skynet/internal/nn"
	"skynet/internal/pipeline"
	"skynet/internal/pso"
	"skynet/internal/quant"
	"skynet/internal/serve"
	"skynet/internal/tensor"
)

// TestIntegrationTrainQuantizeDeployScore walks the full FPGA deployment
// journey of §6.4: train a detector, pick a Table 7 quantization scheme,
// size the Ultra96 IP, simulate the schedule, and produce a contest score.
func TestIntegrationTrainQuantizeDeployScore(t *testing.T) {
	trainN, epochs := 32, 4
	if testing.Short() {
		trainN, epochs = 16, 2 // the journey's assertions are budget-relative
	}
	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = 48, 96
	gen := dataset.NewGenerator(dcfg)
	train := gen.DetectionSet(trainN)
	val := gen.DetectionSet(16)

	rng := rand.New(rand.NewSource(1))
	cfg := backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true}
	model := backbone.SkyNetC(rng, cfg)
	head := detect.NewHead(nil)
	detect.TrainDetector(model, head, train, detect.TrainConfig{
		Epochs: epochs, BatchSize: 8,
		LR: nn.LRSchedule{Start: 0.01, End: 0.005, Epochs: epochs},
	})
	floatIoU := detect.MeanIoU(model, head, val, 8)

	// Quantize with the paper's chosen scheme and re-evaluate.
	var quantIoU float64
	err := quant.WithScheme(model, quant.Table7Schemes[1], detect.Batches(train, 8), func(m quant.Emulated) {
		quantIoU = detect.MeanIoU(m, head, val, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(quantIoU-floatIoU) > 0.2 {
		t.Fatalf("scheme-1 quantization moved IoU too far: %.3f -> %.3f", floatIoU, quantIoU)
	}

	// Hardware mapping: the scaled design must fit the device.
	rep := fpga.Simulate(nn.Costs(model, []int{1, 3, 48, 96}), fpga.Ultra96, fpga.AutoConfig(fpga.Ultra96, 11, 9))
	if !rep.Fits {
		t.Fatalf("scaled SkyNet must fit the device: %s", rep)
	}

	// Contest scoring of the deployed design.
	profile := pipeline.FPGAStageProfile(rep.LatencyS)
	entry := hw.Entry{Team: "integration", IoU: quantIoU,
		FPS: pipeline.ThroughputFPS(profile), PowerW: rep.PowerW()}
	scores := hw.ScoreEntries([]hw.Entry{entry}, hw.FPGATrackX,
		hw.CalibrateMeanEnergy(hw.FPGA2019[0], hw.FPGATrackX))
	if scores[0].TS <= 0 || scores[0].ES < 0 {
		t.Fatalf("degenerate score %+v", scores[0])
	}
}

// TestIntegrationCheckpointJourney trains, checkpoints, reloads in a
// "different process" (fresh builder), and verifies identical predictions.
func TestIntegrationCheckpointJourney(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trained.ckpt")

	spec := modelspec.DefaultSpec()
	spec.Width = 0.125
	g, head, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dataset.DefaultConfig()
	gen := dataset.NewGenerator(dcfg)
	train := gen.DetectionSet(16)
	detect.TrainDetector(g, head, train, detect.TrainConfig{
		Epochs: 2, BatchSize: 8,
		LR: nn.LRSchedule{Start: 0.01, End: 0.01, Epochs: 2},
	})
	if err := modelspec.SaveCheckpoint(path, spec, g); err != nil {
		t.Fatal(err)
	}

	_, g2, head2, err := modelspec.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Scene()
	x, _ := detect.Batch([]detect.Sample{{Image: s.Image, Box: s.Box}}, 0, 1)
	b1, c1 := head.Decode(g.Forward(x, false))
	b2, c2 := head2.Decode(g2.Forward(x, false))
	if b1[0] != b2[0] || c1[0] != c2[0] {
		t.Fatalf("restored model decodes differently: %+v/%v vs %+v/%v",
			b1[0], c1[0], b2[0], c2[0])
	}
}

// TestIntegrationFlowToDeployment runs the bottom-up design flow and maps
// its winning network straight onto both hardware targets.
func TestIntegrationFlowToDeployment(t *testing.T) {
	// Stage 2 condensed: two groups replicating Bundles 6 and 0, searched
	// with the design flow's evaluator at a tiny budget.
	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = 32, 16
	ids := []int{6, 0}
	ev := &pso.EngineEvaluator{
		Gen:    dataset.NewGenerator(dcfg),
		TrainN: 8, ValN: 4,
		Bundles: ids,
		Seed:    1,
		// The flow's Beta weighs no CPU platform: pinned factors skip the
		// wall-clock calibration.
		Factors: pso.EngineFactors{Float32NSPerMAC: 1, Int8NSPerMAC: 1},
	}
	cfg := pso.Config{
		Groups: len(ids), PerGroup: 2, Iterations: 2,
		Slots: 3, Pools: 2, ChannelMin: 4, ChannelMax: 24,
		Alpha:    0.005,
		Beta:     map[string]float64{pso.PlatformFPGA: 2, pso.PlatformGPU: 1},
		TargetMS: map[string]float64{pso.PlatformFPGA: 40, pso.PlatformGPU: 15},
		Seed:     1,
	}
	res, err := pso.SearchFrom(cfg, ev, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Stage 3: rebuild the winner with the bypass from its self-describing
	// spec and deploy it.
	best := res.Best.Net
	spec := modelspec.SearchSpec(ids[best.BundleType], best.Channels, best.PoolPos, 2)
	spec.Bypass = true
	g, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := bundle.Contest.Price(g, []int{1, 3, dcfg.H, dcfg.W})
	if !p.Report.Fits || p.GPUms <= 0 {
		t.Fatalf("searched network failed deployment: %s, gpu %.3fms", p.Report, p.GPUms)
	}
}

// TestIntegrationPipelineOverTrainedModel runs the live three-stage executor
// over a trained model and checks results match serial execution exactly.
func TestIntegrationPipelineOverTrainedModel(t *testing.T) {
	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = 48, 96
	rng := rand.New(rand.NewSource(3))
	cfg := backbone.Config{Width: 0.125, InC: 3, HeadChannels: 10, ReLU6: true}
	model := backbone.SkyNetC(rng, cfg)
	head := detect.NewHead(nil)

	type item struct {
		img  *tensor.Tensor
		x    *tensor.Tensor
		pred *tensor.Tensor
		box  detect.Box
	}
	stages := []pipeline.StageSpec{
		{Name: pipeline.StagePre, Proc: func(_ context.Context, v any) (any, error) {
			f := v.(*item)
			c, h, w := f.img.Dim(0), f.img.Dim(1), f.img.Dim(2)
			f.x = f.img.Clone().Reshape(1, c, h, w)
			return f, nil
		}},
		{Name: pipeline.StageInfer, Proc: func(_ context.Context, v any) (any, error) {
			f := v.(*item)
			f.pred = model.Forward(f.x, false)
			return f, nil
		}},
		{Name: pipeline.StagePost, Proc: func(_ context.Context, v any) (any, error) {
			f := v.(*item)
			boxes, _ := head.Decode(f.pred)
			f.box = boxes[0]
			return f, nil
		}},
	}
	mk := func() []any {
		items := make([]any, 6)
		g2 := dataset.NewGenerator(dcfg)
		for i := range items {
			s := g2.Scene()
			items[i] = &item{img: s.Image}
		}
		return items
	}
	// Serial reference: every item through every stage, one at a time.
	ctx := context.Background()
	ser := mk()
	for _, it := range ser {
		for _, s := range stages {
			if _, err := s.Proc(ctx, it); err != nil {
				t.Fatal(err)
			}
		}
	}
	ex, err := pipeline.NewExecutor(2, stages...)
	if err != nil {
		t.Fatal(err)
	}
	pip, err := ex.Run(ctx, mk())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ser {
		if ser[i].(*item).box != pip[i].(*item).box {
			t.Fatalf("pipelined result %d differs from serial", i)
		}
	}
}

// TestIntegrationStreamingExecutorOverTrainedModel runs the production
// streaming executor (pre/post around micro-batched inference) over
// a real backbone and checks the decoded boxes match the serial per-frame
// path exactly, in order.
func TestIntegrationStreamingExecutorOverTrainedModel(t *testing.T) {
	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = 48, 96
	rng := rand.New(rand.NewSource(3))
	cfg := backbone.Config{Width: 0.125, InC: 3, HeadChannels: 10, ReLU6: true}
	model := backbone.SkyNetC(rng, cfg)
	head := detect.NewHead(nil)

	gen := dataset.NewGenerator(dcfg)
	const n = 10
	frames := make([]any, n)
	want := make([]detect.Box, n)
	for i := range frames {
		s := gen.Scene()
		frames[i] = &detect.Frame{Image: s.Image, GT: s.Box}
		x := s.Image.Clone()
		c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
		boxes, _ := head.Decode(model.Forward(x.Reshape(1, c, h, w), false))
		want[i] = boxes[0]
	}

	// How the ten frames split into batches (and so the GEMM shapes) varies
	// run to run; the boxes may not: a frame's prediction is bitwise the same
	// in a batch of any size as alone.
	ex, err := pipeline.NewExecutor(4,
		detect.PreStage(),
		detect.InferStage(model, 4),
		detect.PostStage(head),
	)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.Run(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		f := v.(*detect.Frame)
		if f.Box != want[i] {
			t.Fatalf("executor box %d = %+v, serial path says %+v", i, f.Box, want[i])
		}
	}
	if prof := ex.MeasuredProfile(); len(prof) != 3 || prof[1] <= 0 {
		t.Fatalf("measured profile %v not populated", prof)
	}
}

// TestIntegrationMultiScaleDetector trains with the §6.1 multi-scale +
// augmentation recipe end to end on the real generator.
func TestIntegrationMultiScaleDetector(t *testing.T) {
	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = 48, 96
	gen := dataset.NewGenerator(dcfg)
	train := gen.DetectionSet(24)
	rng := rand.New(rand.NewSource(4))
	cfg := backbone.Config{Width: 0.125, InC: 3, HeadChannels: 10, ReLU6: true}
	model := backbone.SkyNetC(rng, cfg)
	head := detect.NewHead(nil)
	epochs := 3
	if testing.Short() {
		epochs = 1
	}
	aug := dataset.NewAugmentor(5, 0.2, 0.08)
	loss := detect.TrainDetector(model, head, train, detect.TrainConfig{
		Epochs: epochs, BatchSize: 8,
		LR:      nn.LRSchedule{Start: 0.01, End: 0.005, Epochs: epochs},
		Scales:  [][2]int{{32, 64}, {48, 96}, {64, 128}},
		Augment: aug.Apply,
	})
	if math.IsNaN(loss) || loss <= 0 {
		t.Fatalf("multi-scale training loss %v", loss)
	}
	// The trained model must run at every training scale.
	for _, scale := range [][2]int{{32, 64}, {48, 96}, {64, 128}} {
		x := tensor.New(1, 3, scale[0], scale[1])
		x.RandUniform(rng, 0, 1)
		out := model.Forward(x, false)
		if out.Dim(2) != scale[0]/8 || out.Dim(3) != scale[1]/8 {
			t.Fatalf("scale %v output %v", scale, out.Shape())
		}
	}
}

// TestIntegrationServingLoadMatchesSerial is the serving acceptance test:
// concurrent net/http clients hammer the HTTP service,
// every request must succeed, every response body must be byte-identical
// to serial single-image inference through the same model, and /metrics
// must show the dynamic batcher actually aggregating (mean batch > 1).
//
// A batch is what queued while the last forward ran, and on a fast host this
// small model can finish a forward before the next client's request is
// decoded — every batch is then, correctly, one frame. So the first forward
// is held until two requests are queued behind it: "concurrent clients queue
// behind a forward" is an event the test waits for, not a race it usually
// wins, and the batch that follows has at least two frames.
func TestIntegrationServingLoadMatchesSerial(t *testing.T) {
	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = 48, 96
	rng := rand.New(rand.NewSource(5))
	model := backbone.SkyNetC(rng, backbone.Config{Width: 0.125, InC: 3, HeadChannels: 10, ReLU6: true})
	head := detect.NewHead(nil)

	// Serial reference: one forward per image, encoded exactly as the
	// server's handler encodes.
	gen := dataset.NewGenerator(dcfg)
	const nImages = 8
	images := make([]*tensor.Tensor, nImages)
	wantBody := make([][]byte, nImages)
	for i := range images {
		images[i] = gen.Scene().Image
		x := images[i].Clone()
		c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
		boxes, confs := head.Decode(model.Forward(x.Reshape(1, c, h, w), false))
		var buf bytes.Buffer
		if err := detect.EncodeResponse(&buf, detect.Response{Box: boxes[0], Conf: confs[0]}); err != nil {
			t.Fatal(err)
		}
		wantBody[i] = buf.Bytes()
	}

	// One replica, cache off: repeated frames must reach the batcher for
	// Served and MeanBatchSize to mean what the assertions below say.
	var srv *serve.Pool
	held := &heldFirstForward{Model: model, ready: func() bool {
		return srv.Metrics().ReplicaMetrics[0].QueueDepth >= 2
	}}
	srv, err := serve.NewPool(func() (detect.Model, *detect.Head, error) {
		return held, head, nil
	}, serve.PoolConfig{
		Replicas:     1,
		CacheEntries: -1,
		Replica: serve.Config{
			MaxBatch:       8,
			QueueDepth:     256,
			RequestTimeout: time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	clients, perClient := 64, 2
	if testing.Short() {
		clients, perClient = 16, 1
	}
	// Client c's r-th request sends image (c·perClient + r) mod nImages.
	bodies := make([][]byte, nImages)
	for i, img := range images {
		var buf bytes.Buffer
		if err := detect.EncodeRequest(&buf, img); err != nil {
			t.Fatal(err)
		}
		bodies[i] = buf.Bytes()
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				img := (c*perClient + r) % nImages
				resp, err := http.Post(ts.URL+"/detect", "application/json", bytes.NewReader(bodies[img]))
				if err != nil {
					t.Errorf("client %d image %d: %v", c, img, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d image %d: status %d %q (%v)", c, img, resp.StatusCode, body, err)
					return
				}
				if !bytes.Equal(body, wantBody[img]) {
					t.Errorf("client %d image %d: batched response %q differs from serial %q", c, img, body, wantBody[img])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m serve.PoolMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Served != int64(clients*perClient) {
		t.Fatalf("served %d, want %d", m.Served, clients*perClient)
	}
	if mb := m.ReplicaMetrics[0].MeanBatchSize; mb <= 1 {
		t.Fatalf("mean batch size %.2f — dynamic batching did not aggregate concurrent load", mb)
	}
}

// heldFirstForward delays a model's first forward until ready reports true.
type heldFirstForward struct {
	detect.Model
	ready func() bool
	once  sync.Once
}

func (m *heldFirstForward) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	m.once.Do(func() {
		for !m.ready() {
			time.Sleep(time.Millisecond)
		}
	})
	return m.Model.Forward(x, train)
}

// TestIntegrationTrainDetectDeterministic pins end-to-end reproducibility:
// a fixed-seed fast-train + detect run is bitwise identical across two
// runs and across GOMAXPROCS=1 vs 8 (the parallel backward stages
// per-image gradients and reduces them in a fixed order, so the worker
// count must not leak into the arithmetic).
func TestIntegrationTrainDetectDeterministic(t *testing.T) {
	trainN, epochs, scenes := 16, 2, 4
	if testing.Short() {
		trainN, epochs = 8, 1
	}
	run := func(procs int) ([]detect.Box, []float64, float64) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		dcfg := dataset.DefaultConfig()
		dcfg.W, dcfg.H = 48, 96
		gen := dataset.NewGenerator(dcfg)
		rng := rand.New(rand.NewSource(7))
		model := backbone.SkyNetC(rng, backbone.Config{Width: 0.125, InC: 3, HeadChannels: 10, ReLU6: true})
		head := detect.NewHead(nil)
		loss := detect.TrainDetector(model, head, gen.DetectionSet(trainN), detect.TrainConfig{
			Epochs: epochs, BatchSize: 8,
			LR: nn.LRSchedule{Start: 0.01, End: 0.005, Epochs: epochs},
		})
		boxes := make([]detect.Box, scenes)
		confs := make([]float64, scenes)
		for i := range boxes {
			s := gen.Scene()
			x := s.Image.Clone()
			c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
			bs, cs := head.Decode(model.Forward(x.Reshape(1, c, h, w), false))
			boxes[i], confs[i] = bs[0], cs[0]
		}
		return boxes, confs, loss
	}

	b1, c1, l1 := run(1)
	for name, other := range map[string]int{"second run at GOMAXPROCS=1": 1, "GOMAXPROCS=8": 8} {
		b2, c2, l2 := run(other)
		if l1 != l2 {
			t.Fatalf("%s: training loss %.17g differs from %.17g", name, l2, l1)
		}
		for i := range b1 {
			if b1[i] != b2[i] || c1[i] != c2[i] {
				t.Fatalf("%s: detection %d = %+v/%v, want bitwise-identical %+v/%v",
					name, i, b2[i], c2[i], b1[i], c1[i])
			}
		}
	}
}
