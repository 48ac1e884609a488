package detect

import (
	"context"
	"math"
	"math/rand"
	"testing"

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
		alone := m.Forward(f.X.Reshape(1, 3, 8, 8), false)
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

// seesInput is a model that notes the tensor it was handed.
type seesInput struct {
	Model
	x *tensor.Tensor
}

func (m *seesInput) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	m.x = x
	return m.Model.Forward(x, train)
}

// TestInferBatchOfOneIsAView: the lone frame of a live stream's op is not
// stacked — the model reads the frame's own X as [1,C,H,W] — and that is safe
// with both engines because neither reads x once Forward has returned: X
// overwritten afterwards, the frame's prediction is what it was, and a second
// frame through the same model is that frame's own forward.
func TestInferBatchOfOneIsAView(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := nn.Sequential(
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
		m := &seesInput{Model: engine}
		var preds [2][]float32
		for k := range preds {
			f := streamFrames(rng, 1)[0].(*Frame)
			if err := Preprocess(f); err != nil {
				t.Fatal(err)
			}
			if err := InferBatch(m, []*Frame{f}); err != nil {
				t.Fatal(err)
			}
			if m.x.Rank() != 4 || m.x.Dim(0) != 1 || &m.x.Data[0] != &f.X.Data[0] {
				t.Fatalf("%s: the model was handed %v at %p, want a [1,C,H,W] view of the frame's X at %p", name, m.x.Shape(), &m.x.Data[0], &f.X.Data[0])
			}
			want := engine.Forward(f.X.Clone().Reshape(1, 3, 8, 8), false).Clone()
			for i := range f.X.Data {
				f.X.Data[i] = float32(math.NaN())
			}
			for i, v := range f.Pred.Data {
				if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s, frame %d: prediction element %d = %v after X was overwritten, the frame's own forward gives %v", name, k, i, v, want.Data[i])
				}
			}
			preds[k] = f.Pred.Data
		}
		if &preds[0][0] == &preds[1][0] {
			t.Fatalf("%s: two frames share one prediction buffer", name)
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
	g := nn.Sequential(nn.NewPWConv1(rng, 1, head.Channels(), true))
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
		PreStage(1),
		InferStage(badShapeModel{}, 3),
		PostStage(head, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	if _, err := ex.Run(context.Background(), streamFrames(rng, 6)); err == nil {
		t.Fatal("mismatched model output batch must fail the run")
	}
}
