package detect_test

// An external test package: it builds SkyNet through backbone, which
// imports detect by way of bundle.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"skynet/internal/backbone"
	. "skynet/internal/detect"
	"skynet/internal/nn"
	"skynet/internal/pipeline"
	"skynet/internal/quant"
	"skynet/internal/tensor"
)

// fakeModel maps each sample's first pixel deterministically to a head
// output, so batched and per-item forwards are trivially comparable.
type fakeModel struct {
	ch, sh, sw int
}

func (f fakeModel) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n := x.Dim(0)
	inPer := x.Dim(1) * x.Dim(2) * x.Dim(3)
	out := tensor.New(n, f.ch, f.sh, f.sw)
	outPer := f.ch * f.sh * f.sw
	for i := 0; i < n; i++ {
		seed := x.Data[i*inPer]
		for j := 0; j < outPer; j++ {
			out.Data[i*outPer+j] = seed + float32(j)*0.01
		}
	}
	return out
}

func streamFrames(rng *rand.Rand, n int) []any {
	frames := make([]any, n)
	for i := range frames {
		img := tensor.New(3, 8, 8)
		img.RandNormal(rng, 0, 1)
		frames[i] = &Frame{Image: img}
	}
	return frames
}

// The three-stage streaming executor must produce, in order, exactly the
// boxes a serial per-frame pre→forward→decode loop produces — however the
// frames happen to split into batches.
func TestStreamExecutorMatchesSerial(t *testing.T) {
	head := NewHead(nil)
	m := fakeModel{ch: head.Channels(), sh: 4, sw: 4}
	rng := rand.New(rand.NewSource(11))
	frames := streamFrames(rng, 37)

	ex, err := NewStreamExecutor(m, head, StreamConfig{MaxBatch: 5})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.Run(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(frames) {
		t.Fatalf("executor returned %d frames, want %d", len(out), len(frames))
	}
	for i, v := range out {
		f := v.(*Frame)
		x := f.Image.Clone()
		c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
		pred := m.Forward(x.Reshape(1, c, h, w), false)
		boxes, confs := head.Decode(pred)
		if f.Box != boxes[0] || math.Abs(f.Conf-confs[0]) > 1e-12 {
			t.Fatalf("frame %d: executor box %+v conf %v, serial %+v conf %v",
				i, f.Box, f.Conf, boxes[0], confs[0])
		}
	}
}

// pipelineGoroutines counts the live goroutines the pipeline package started.
func pipelineGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by skynet/internal/pipeline.")
}

// noPipelineGoroutines fails the test unless every pipeline goroutine is
// gone within a second: a joined goroutine may still be on its way out.
func noPipelineGoroutines(t *testing.T, when string) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); pipelineGoroutines() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d pipeline goroutines %s", pipelineGoroutines(), when)
		}
	}
}

// An open stream of NewStreamExecutor is four goroutines — the three stages
// of §6.3, one each as PipelinedMakespan models them, and the forwarder into
// the first queue — idle or with a frame through, and none once wait returns.
func TestStreamExecutorGoroutineCensus(t *testing.T) {
	head := NewHead(nil)
	m := fakeModel{ch: head.Channels(), sh: 2, sw: 2}
	ex, err := NewStreamExecutor(m, head, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	noPipelineGoroutines(t, "before the stream opened")
	in := make(chan any)
	out, wait := ex.Stream(context.Background(), in)
	if n := pipelineGoroutines(); n != 4 {
		t.Fatalf("an open stream holds %d goroutines, want 4", n)
	}
	in <- streamFrames(rand.New(rand.NewSource(3)), 1)[0]
	<-out
	if n := pipelineGoroutines(); n != 4 {
		t.Fatalf("after one frame the stream holds %d goroutines, want 4", n)
	}
	close(in)
	for range out {
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	noPipelineGoroutines(t, "left after wait")
}

// InferBatch stacks same-shape frames into one forward and hands each frame
// its own slice of the prediction; frames of different H×W are an error, not
// a frame silently forwarded at its neighbour's size.
func TestInferBatchStacksSameShapesAndRejectsMixed(t *testing.T) {
	head := NewHead(nil)
	m := fakeModel{ch: head.Channels(), sh: 4, sw: 4}
	rng := rand.New(rand.NewSource(12))
	frames := make([]*Frame, 5)
	for i, v := range streamFrames(rng, len(frames)) {
		frames[i] = v.(*Frame)
		if err := Preprocess(frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := InferBatch(m, frames); err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		alone := m.Forward(f.Image.Reshape(1, 3, 8, 8), false)
		if !f.Pred.SameShape(alone) {
			t.Fatalf("frame %d: prediction %v, alone %v", i, f.Pred.Shape(), alone.Shape())
		}
		for j := range alone.Data {
			if f.Pred.Data[j] != alone.Data[j] {
				t.Fatalf("frame %d: batched prediction differs from the frame alone at %d", i, j)
			}
		}
	}

	odd := &Frame{Image: tensor.New(3, 12, 16)}
	if err := Preprocess(odd); err != nil {
		t.Fatal(err)
	}
	if err := InferBatch(m, []*Frame{frames[0], odd}); err == nil {
		t.Fatal("a batch of 8×8 and 12×16 frames must be an error")
	}
}

// recorder is an engine that notes the shape and the data of the tensor it
// was handed — as it stood during the forward: a lone frame's view is a
// recycled header.
type recorder struct {
	Model
	xShape []int
	xData  []float32
}

func (m *recorder) ForwardSamples(outs []*tensor.Tensor, x *tensor.Tensor) {
	m.xShape, m.xData = append([]int(nil), x.Shape()...), x.Data
	m.Model.(interface {
		ForwardSamples([]*tensor.Tensor, *tensor.Tensor)
	}).ForwardSamples(outs, x)
}

// forwardOnly hides an engine's ForwardSamples: InferBatch forwards it and
// copies the output's rows into the buffers it lends.
type forwardOnly struct{ Model }

// TestInferBatchOfOneIsAView: the lone frame of a live stream's op is not
// stacked — the model reads the frame's own Image as [1,C,H,W] — and that is
// safe with both engines because neither reads x once Forward has returned:
// Image overwritten afterwards, the frame's prediction is what it was, and a
// second frame through the same model is that frame's own forward.
func TestInferBatchOfOneIsAView(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := sequential(
		nn.NewDWConv3(rng, 3, 3, false),
		nn.NewPWConv1(rng, 3, 8, false),
		nn.NewBatchNorm(8),
		nn.NewReLU6(),
		nn.NewMaxPool(2),
		nn.NewPWConv1(rng, 8, 5, true),
	)
	calib := tensor.New(4, 3, 8, 8)
	calib.RandNormal(rng, 0, 1)
	qm, err := quant.Export(g, []*tensor.Tensor{calib}, quant.ExportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for name, engine := range map[string]Model{"float32": g, "int8": qm} {
		m := &recorder{Model: engine}
		var preds [2][]float32
		for k := range preds {
			f := streamFrames(rng, 1)[0].(*Frame)
			if err := InferBatch(m, []*Frame{f}); err != nil {
				t.Fatal(err)
			}
			if len(m.xShape) != 4 || m.xShape[0] != 1 || &m.xData[0] != &f.Image.Data[0] {
				t.Fatalf("%s: the model was handed %v at %p, want a [1,C,H,W] view of the frame's Image at %p", name, m.xShape, &m.xData[0], &f.Image.Data[0])
			}
			want := engine.Forward(f.Image.Clone().Reshape(1, 3, 8, 8), false)
			for i := range f.Image.Data {
				f.Image.Data[i] = float32(math.NaN())
			}
			for i, v := range f.Pred.Data {
				if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s, frame %d: prediction element %d = %v after Image was overwritten, the frame's own forward gives %v", name, k, i, v, want.Data[i])
				}
			}
			preds[k] = f.Pred.Data
		}
		if &preds[0][0] == &preds[1][0] {
			t.Fatalf("%s: two frames share one prediction buffer", name)
		}
	}
}

// engine is one of the two inference engines a stream can run.
type engine struct {
	name string
	m    Model
}

// skyNetEngines returns SkyNet C at width 0.25 with the contest head and its
// int8 lowering, calibrated on 48×96 frames.
func skyNetEngines(t *testing.T, rng *rand.Rand) []engine {
	t.Helper()
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: NewHead(nil).Channels(), ReLU6: true})
	calib := tensor.New(2, 3, 48, 96)
	calib.RandNormal(rng, 0, 1)
	qm, err := quant.Export(g, []*tensor.Tensor{calib}, quant.ExportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return []engine{{"float32", g}, {"int8", qm}}
}

// skyFrames returns n frames of fresh 48×96 images.
func skyFrames(rng *rand.Rand, n int) []*Frame {
	frames := make([]*Frame, n)
	for i := range frames {
		img := tensor.New(3, 48, 96)
		img.RandNormal(rng, 0, 1)
		frames[i] = &Frame{Image: img}
	}
	return frames
}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// TestInferBatchHandsPredictionsOver: every frame of a batch, lone or not, is
// lent a [1,ch,Sh,Sw] buffer of its own, which Postprocess takes back — Pred
// nil after it —, and the next batch is lent the same buffers again. On both
// engines, and on an engine forwarded whole (forwardOnly), every prediction is
// bitwise that frame's own single forward, run after the batch — which must
// not disturb the batch's predictions.
func TestInferBatchHandsPredictionsOver(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	head := NewHead(nil)
	engines := skyNetEngines(t, rng)
	engines = append(engines, engine{"float32 forwarded whole", forwardOnly{engines[0].m}})
	for _, e := range engines {
		for _, n := range []int{1, 3, 4} {
			var lent []*tensor.Tensor
			for round := 0; round < 2; round++ {
				frames := skyFrames(rng, n)
				if err := InferBatch(e.m, frames); err != nil {
					t.Fatal(err)
				}
				for i, f := range frames {
					if f.Pred.Rank() != 4 || f.Pred.Dim(0) != 1 || f.Pred.Dim(1) != head.Channels() {
						t.Fatalf("%s, batch %d: frame %d's Pred is %v, want [1,%d,Sh,Sw]", e.name, n, i, f.Pred.Shape(), head.Channels())
					}
					for _, g := range frames[:i] {
						if &g.Pred.Data[0] == &f.Pred.Data[0] {
							t.Fatalf("%s, batch %d: frame %d shares its prediction buffer", e.name, n, i)
						}
					}
					if round == 1 && !slices.Contains(lent, f.Pred) {
						t.Fatalf("%s, batch %d: frame %d was lent a buffer the last batch did not give back", e.name, n, i)
					}
				}
				for i, f := range frames {
					alone := e.m.Forward(f.Image.Reshape(1, 3, 48, 96), false)
					if !f.Pred.SameShape(alone) || !sameBits(f.Pred.Data, alone.Data) {
						t.Fatalf("%s, batch %d: frame %d's prediction differs from its own forward", e.name, n, i)
					}
				}
				lent = lent[:0]
				for i, f := range frames {
					lent = append(lent, f.Pred)
					if err := Postprocess(head, f); err != nil {
						t.Fatal(err)
					}
					if f.Pred != nil {
						t.Fatalf("%s, batch %d: frame %d keeps its Pred after Postprocess", e.name, n, i)
					}
				}
			}
		}
	}
}

// TestInferBatchLentPredictionsNeverShared: four goroutines at once run
// InferBatch and then Postprocess on frames of their own, on both engines, at
// batch 1 and 3. A buffer goes back to the free list while the others' are in
// flight, and is lent again at once: every prediction, read before its
// Postprocess, must still be bitwise its frame's own forward.
func TestInferBatchLentPredictionsNeverShared(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	head := NewHead(nil)
	for _, e := range skyNetEngines(t, rng) {
		for _, n := range []int{1, 3} {
			const workers, rounds = 4, 4
			frames := make([][]*Frame, workers)
			want := make([][][]float32, workers)
			for w := range frames {
				frames[w] = skyFrames(rng, n)
				for _, f := range frames[w] {
					want[w] = append(want[w], e.m.Forward(f.Image.Reshape(1, 3, 48, 96), false).Data)
				}
			}
			errs := make(chan error, workers)
			for w := range frames {
				go func() {
					for r := 0; r < rounds; r++ {
						if err := InferBatch(e.m, frames[w]); err != nil {
							errs <- err
							return
						}
						for i, f := range frames[w] {
							if !sameBits(f.Pred.Data, want[w][i]) {
								errs <- fmt.Errorf("%s, batch %d: worker %d's frame %d, round %d: the prediction is not the frame's own forward", e.name, n, w, i, r)
								return
							}
							if err := Postprocess(head, f); err != nil {
								errs <- err
								return
							}
						}
					}
					errs <- nil
				}()
			}
			for range frames {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestStreamLeavesProducerImagesAlone: frames that share image tensors —
// three scenes behind twelve frames, batched as they queue — come out of a
// Run and of a live Stream with the boxes of each frame's own forward, and
// every producer image is bit for bit what it was: the stages read images in
// place and never write them.
func TestStreamLeavesProducerImagesAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	head := NewHead(nil)
	scenes := skyFrames(rng, 3)
	kept := make([]*tensor.Tensor, len(scenes))
	for i, f := range scenes {
		kept[i] = f.Image.Clone()
	}
	frames := func() []any {
		out := make([]any, 12)
		for i := range out {
			out[i] = &Frame{Image: scenes[i%len(scenes)].Image}
		}
		return out
	}
	for _, e := range skyNetEngines(t, rng) {
		want := make([]Box, len(scenes))
		for i, f := range scenes {
			boxes, _ := head.Decode(e.m.Forward(f.Image.Reshape(1, 3, 48, 96), false))
			want[i] = boxes[0]
		}
		ex, err := NewStreamExecutor(e.m, head, StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ran, err := ex.Run(context.Background(), frames())
		if err != nil {
			t.Fatal(err)
		}
		in := make(chan any, 12)
		for _, f := range frames() {
			in <- f
		}
		close(in)
		out, wait := ex.Stream(context.Background(), in)
		var streamed []any
		for v := range out {
			streamed = append(streamed, v)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		for how, got := range map[string][]any{"Run": ran, "Stream": streamed} {
			if len(got) != 12 {
				t.Fatalf("%s %s: %d frames out, want 12", e.name, how, len(got))
			}
			for i, v := range got {
				if b := v.(*Frame).Box; b != want[i%len(scenes)] {
					t.Fatalf("%s %s: frame %d box %+v, its own forward gives %+v", e.name, how, i, b, want[i%len(scenes)])
				}
			}
		}
		for i, f := range scenes {
			if !sameBits(f.Image.Data, kept[i].Data) {
				t.Fatalf("%s: the stream wrote producer image %d", e.name, i)
			}
		}
	}
}

// TestPreprocessAllocatesNothing: pre-processing validates the frame and
// reads its image in place.
func TestPreprocessAllocatesNothing(t *testing.T) {
	f := skyFrames(rand.New(rand.NewSource(16)), 1)[0]
	if n := testing.AllocsPerRun(100, func() {
		if err := Preprocess(f); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Preprocess allocates %v times, want 0", n)
	}
}

// TestInferBatchAllocationBound keeps the inference stage from allocating
// again: on either engine, once each frame's buffer has come back through
// Postprocess, a warm InferBatch of one frame allocates nothing — its input is
// a recycled view, its prediction a lent buffer, the forward's executor off a
// free list — and one of four the batch stack alone.
func TestInferBatchAllocationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	head := NewHead(nil)
	var stacked *tensor.Tensor
	stack := testing.AllocsPerRun(10, func() { stacked = tensor.New(4, 3, 48, 96) })
	runtime.KeepAlive(stacked)
	bound := map[int]float64{1: 0, 4: stack}
	for _, e := range skyNetEngines(t, rng) {
		for _, n := range []int{1, 4} {
			frames := skyFrames(rng, n)
			infer := func() {
				if err := InferBatch(e.m, frames); err != nil {
					t.Fatal(err)
				}
				for _, f := range frames {
					if err := Postprocess(head, f); err != nil {
						t.Fatal(err)
					}
				}
			}
			infer()
			infer()
			got := testing.AllocsPerRun(10, infer)
			t.Logf("%s, batch %d: %v allocations", e.name, n, got)
			if got > bound[n] {
				t.Errorf("%s: InferBatch of %d allocates %v times, bound %v", e.name, n, got, bound[n])
			}
		}
	}
}

// TestStreamLoneFrameAllocatesOnlyItsFrame: a warm live stream — one frame in
// flight at a time, through Executor.Stream's three stages — allocates, per
// frame, the Frame its caller makes and nothing else, on both engines: the
// zero-allocation contract the stream benchmarks read as allocs_per_op.
func TestStreamLoneFrameAllocatesOnlyItsFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	head := NewHead(nil)
	img := skyFrames(rng, 1)[0].Image
	for _, e := range skyNetEngines(t, rng) {
		ex, err := NewStreamExecutor(e.m, head, StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		in := make(chan any)
		out, wait := ex.Stream(context.Background(), in)
		frame := func() {
			in <- &Frame{Image: img}
			if f := (<-out).(*Frame); f.Pred != nil {
				t.Fatalf("%s: a streamed frame keeps its Pred", e.name)
			}
		}
		for i := 0; i < 3; i++ {
			frame()
		}
		got := testing.AllocsPerRun(20, frame)
		close(in)
		for range out {
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		if got > 1 {
			t.Errorf("%s: a warm streamed frame allocates %v times, want its Frame alone (1)", e.name, got)
		}
	}
}

// Wrong item types and missing fields fail the run with a stage error
// instead of panicking or deadlocking.
func TestStreamStagesRejectBadFrames(t *testing.T) {
	head := NewHead(nil)
	m := fakeModel{ch: head.Channels(), sh: 2, sw: 2}
	ex, err := NewStreamExecutor(m, head, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(context.Background(), []any{"not a frame"}); err == nil {
		t.Fatal("non-frame item must fail the run")
	}
	if _, err := ex.Run(context.Background(), []any{&Frame{}}); err == nil {
		t.Fatal("frame without an image must fail the run")
	}
}

// TestPostprocessRejectsForeignPredictions: a prediction the head cannot
// decode — another channel count, another rank — is an error from
// Postprocess, not a panic on the goroutine that decodes it.
func TestPostprocessRejectsForeignPredictions(t *testing.T) {
	head := NewHead(nil)
	for _, shape := range [][]int{{1, 12, 6, 12}, {1, 9, 2, 2}, {10, 2, 2}, {2, 10, 2, 2}} {
		f := &Frame{Pred: tensor.New(shape...)}
		if err := Postprocess(head, f); err == nil {
			t.Errorf("a %v prediction decoded without an error", shape)
		}
	}
}

// R_IoU over an empty evaluation set is defined as 0 (no detections to
// reward), not the 0/0 NaN the raw mean would produce.
func TestMeanIoUEmptySamples(t *testing.T) {
	head := NewHead(nil)
	m := fakeModel{ch: head.Channels(), sh: 2, sw: 2}
	got := MeanIoU(m, head, nil, 8)
	if math.IsNaN(got) || got != 0 {
		t.Fatalf("MeanIoU(empty) = %v, want 0", got)
	}
}

// Training on an empty sample set performs no steps and reports loss 0,
// not NaN from dividing by zero batches.
func TestTrainDetectorEmptySamples(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	head := NewHead(nil)
	g := sequential(nn.NewPWConv1(rng, 1, head.Channels(), true))
	loss := TrainDetector(g, head, nil, TrainConfig{
		Epochs: 3, BatchSize: 8, LR: nn.LRSchedule{Start: 0.01, End: 0.001, Epochs: 3},
	})
	if math.IsNaN(loss) || loss != 0 {
		t.Fatalf("TrainDetector(empty) = %v, want 0", loss)
	}
}

// A model whose batched output shape is wrong must fail the inference
// stage as an error.
type badShapeModel struct{}

func (badShapeModel) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	return tensor.New(x.Dim(0)+1, 10, 2, 2) // one prediction too many, whatever the batch
}

func TestInferStageRejectsBadModelOutput(t *testing.T) {
	head := NewHead(nil)
	// The model's output batch mismatches for every batch size, so the run
	// fails however the six frames happen to split into batches.
	ex, err := pipeline.NewExecutor(2,
		PreStage(),
		InferStage(badShapeModel{}, 3),
		PostStage(head),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	if _, err := ex.Run(context.Background(), streamFrames(rng, 6)); err == nil {
		t.Fatal("mismatched model output batch must fail the run")
	}
}

// TestStreamExecutorConcurrentRunsMatchSerial: an Executor is safe for
// concurrent use, and every run of one shares its stages — the inference
// stage's one model among them, whose forward is not reentrant. Two
// goroutines running the same frames through one executor at once get, bit
// for bit, the predictions and boxes a lone run gets. Without the stage's
// lock the two runs' forwards share the model's arena: data races under
// -race, and a slice-bounds panic without it. Postprocess takes each
// prediction back, so a stage between inference and post-processing copies
// it out for the comparison.
func TestStreamExecutorConcurrentRunsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	head := NewHead(nil)
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.125, InC: 3, HeadChannels: head.Channels(), ReLU6: true})
	var mu sync.Mutex
	captured := map[*Frame][]float32{}
	capture := pipeline.StageSpec{Name: "capture", Proc: func(_ context.Context, v any) (any, error) {
		f := v.(*Frame)
		mu.Lock()
		captured[f] = slices.Clone(f.Pred.Data)
		mu.Unlock()
		return f, nil
	}}
	ex, err := pipeline.NewExecutor(4, PreStage(), InferStage(g, 4), capture, PostStage(head))
	if err != nil {
		t.Fatal(err)
	}
	pred := func(f *Frame) []float32 {
		mu.Lock()
		defer mu.Unlock()
		return captured[f]
	}
	images := make([]*tensor.Tensor, 6)
	for i := range images {
		images[i] = tensor.New(3, 32, 64)
		images[i].RandNormal(rng, 0, 1)
	}
	run := func() ([]*Frame, error) {
		items := make([]any, len(images))
		for i, img := range images {
			items[i] = &Frame{Image: img}
		}
		out, err := ex.Run(context.Background(), items)
		frames := make([]*Frame, len(out))
		for i, v := range out {
			frames[i] = v.(*Frame)
		}
		return frames, err
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}

	const runners, runs = 2, 5
	errs := make(chan error, runners)
	for r := 0; r < runners; r++ {
		go func() {
			for k := 0; k < runs; k++ {
				got, err := run()
				if err != nil {
					errs <- err
					return
				}
				for i, f := range got {
					if got := pred(f); len(got) == 0 || !sameBits(got, pred(want[i])) || f.Box != want[i].Box || f.Conf != want[i].Conf {
						errs <- fmt.Errorf("run %d, frame %d: box %+v conf %v, a lone run gives %+v conf %v", k, i, f.Box, f.Conf, want[i].Box, want[i].Conf)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for r := 0; r < runners; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// sequential chains layers, each fed by the one before.
func sequential(layers ...nn.Layer) *nn.Graph {
	g := nn.NewGraph()
	for _, l := range layers {
		g.Add(l)
	}
	return g
}
