package detect

// Live detection on the streaming executor: the three merged stages of
// §6.3/Figure 10 (fetch+pre-process, batched inference, post-process)
// expressed as pipeline.StageSpec values over a stream of Frames. The
// inference stage is the paper's batched one — frames are micro-batched,
// stacked with Batch into a single [B,C,H,W] forward pass, and the head
// output is split back per frame so post-processing stays per-item.

import (
	"context"
	"errors"
	"fmt"

	"skynet/internal/pipeline"
	"skynet/internal/tensor"
)

// Frame is one unit of work flowing through the live detection pipeline.
// Stages fill in their field and pass the frame along.
type Frame struct {
	Image *tensor.Tensor // [C,H,W] input scene (set by the producer)
	// Owned says the producer hands Image over: nobody else writes it while
	// the frame is in the pipeline, so Preprocess need not copy it.
	Owned bool
	GT    Box            // optional ground truth, carried through for scoring
	X     *tensor.Tensor // [C,H,W] pre-processed input (PreStage)
	Pred  *tensor.Tensor // [1,ch,Sh,Sw] raw head output (InferStage)
	Box   Box            // decoded detection (PostStage)
	Conf  float64        // decoded confidence (PostStage)
}

func asFrame(stage string, v any) (*Frame, error) {
	f, ok := v.(*Frame)
	if !ok {
		return nil, fmt.Errorf("detect: %s stage got %T, want *detect.Frame", stage, v)
	}
	return f, nil
}

// Preprocess is the per-frame fetch/pre-process transform: it validates
// the input and clones the image so every downstream stage owns its data
// regardless of what the producer does with the original buffer — unless
// the producer gave the image up (Frame.Owned), in which case the stages read
// it in place. It is stateless and safe to call concurrently.
func Preprocess(f *Frame) error {
	if f.Image == nil {
		return errors.New("detect: frame has no image")
	}
	if f.Image.Rank() != 3 {
		return fmt.Errorf("detect: frame image rank %d, want [C,H,W]", f.Image.Rank())
	}
	if f.X = f.Image; !f.Owned {
		f.X = f.Image.Clone()
	}
	return nil
}

// PreStage returns the merged fetch/pre-process stage over Preprocess. The
// work is per-frame and stateless, so it can scale across workers.
func PreStage(workers int) pipeline.StageSpec {
	return pipeline.StageSpec{
		Name:    pipeline.StagePre,
		Workers: workers,
		Proc: func(_ context.Context, v any) (any, error) {
			f, err := asFrame(pipeline.StagePre, v)
			if err != nil {
				return nil, err
			}
			if err := Preprocess(f); err != nil {
				return nil, err
			}
			return f, nil
		},
	}
}

// InferBatch stacks the frames' pre-processed inputs into one [B,C,H,W]
// tensor, runs a single forward pass, and splits the prediction back into
// per-frame [1,ch,Sh,Sw] copies, so the frames own their predictions (a
// quant.QuantizedModel reuses its output buffer on the next forward; an
// nn.Graph returns a fresh tensor each time). Calls for the same model must
// be serialized by the caller: a forward pass is not reentrant — an nn.Graph
// (a quant.QuantizedModel likewise) keeps the feature maps of the forward in
// flight in one arena it owns, a region per lane, and the lanes, band buffers
// and im2col scratch that go with them. Frames of one call must share a
// shape: a stack has one H×W, so a mixed batch is an error, never a frame
// forwarded at its neighbour's size. A batch of one — every op of a live
// stream — is not stacked: the model is handed a [1,C,H,W] view of the frame's
// own X, which neither engine reads or keeps once Forward has returned.
func InferBatch(m Model, frames []*Frame) error {
	if len(frames) == 0 {
		return nil
	}
	for i, f := range frames {
		if f.X == nil {
			return errors.New("detect: frame reached inference without pre-processing")
		}
		if !f.X.SameShape(frames[0].X) {
			return fmt.Errorf("detect: frame %d of the batch is %v, frame 0 is %v", i, f.X.Shape(), frames[0].X.Shape())
		}
	}
	x := frames[0].X
	if len(frames) == 1 {
		x = x.Reshape(1, x.Dim(0), x.Dim(1), x.Dim(2))
	} else {
		samples := make([]Sample, len(frames))
		for i, f := range frames {
			samples[i] = Sample{Image: f.X}
		}
		x, _ = Batch(samples, 0, len(samples))
	}
	pred := m.Forward(x, false)
	if pred.Rank() != 4 || pred.Dim(0) != len(frames) {
		return fmt.Errorf("detect: model returned %v for a batch of %d", pred.Shape(), len(frames))
	}
	ch, sh, sw := pred.Dim(1), pred.Dim(2), pred.Dim(3)
	per := ch * sh * sw
	for i, f := range frames {
		p := tensor.New(1, ch, sh, sw)
		copy(p.Data, pred.Data[i*per:(i+1)*per])
		f.Pred = p
	}
	return nil
}

// Postprocess decodes the single best box and its confidence from the
// frame's raw head output. Decode only reads the head, so it is safe to
// call concurrently.
func Postprocess(h *Head, f *Frame) error {
	if f.Pred == nil {
		return errors.New("detect: frame reached post-processing without a prediction")
	}
	boxes, confs := h.Decode(f.Pred)
	f.Box, f.Conf = boxes[0], confs[0]
	return nil
}

// InferStage returns the micro-batched DNN inference stage of §6.3: the
// pre-processed frames that queued while the previous forward ran, up to
// maxBatch of them, are stacked into one [B,C,H,W] tensor and run through a
// single Forward. What the micro-batch buys on a CPU is sample-level
// parallelism without joins: once it holds a frame for every core the model
// runs it as lanes, each core taking whole frames through the network on its
// own one-frame set of feature-map buffers and meeting the others once per
// forward, not once per layer — as the paper's batch shares one set of
// on-chip buffers among four frames (§6.2, Figure 9). The stage runs on one
// worker because a forward pass is not reentrant (the model owns the arena
// and the lanes, see InferBatch), so one model is driven by one inference
// worker; scale throughput with maxBatch instead.
func InferStage(m Model, maxBatch int) pipeline.StageSpec {
	return pipeline.StageSpec{
		Name:     pipeline.StageInfer,
		MaxBatch: maxBatch,
		Batch: func(_ context.Context, items []any) ([]any, error) {
			frames := make([]*Frame, len(items))
			for i, v := range items {
				f, err := asFrame(pipeline.StageInfer, v)
				if err != nil {
					return nil, err
				}
				frames[i] = f
			}
			if err := InferBatch(m, frames); err != nil {
				return nil, err
			}
			out := make([]any, len(items))
			for i, f := range frames {
				out[i] = f
			}
			return out, nil
		},
	}
}

// PostStage returns the post-processing stage: decode the single best box
// and its confidence from the raw head output. Decode only reads the head,
// so the stage can scale across workers.
func PostStage(h *Head, workers int) pipeline.StageSpec {
	return pipeline.StageSpec{
		Name:    pipeline.StagePost,
		Workers: workers,
		Proc: func(_ context.Context, v any) (any, error) {
			f, err := asFrame(pipeline.StagePost, v)
			if err != nil {
				return nil, err
			}
			if err := Postprocess(h, f); err != nil {
				return nil, err
			}
			return f, nil
		},
	}
}

// StreamConfig tunes NewStreamExecutor.
type StreamConfig struct {
	// MaxBatch caps the inference micro-batch; 0 selects 4 (the paper's
	// Figure 9 batch size). On a live stream a frame is forwarded as it
	// arrives; on a backlog the batches fill by themselves.
	MaxBatch int
}

// streamWorkers is the width of the pre- and post-process stages.
const streamWorkers = 2

// NewStreamExecutor assembles the full three-stage §6.3 executor for a
// model+head pair: multi-worker pre/post stages around single-worker
// micro-batched inference, with frames delivered in input order. The
// inter-stage queues hold MaxBatch frames, so a full batch can queue behind
// the forward in flight without stalling the pre-process stage.
func NewStreamExecutor(m Model, h *Head, cfg StreamConfig) (*pipeline.Executor, error) {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4
	}
	return pipeline.NewExecutor(cfg.MaxBatch,
		PreStage(streamWorkers),
		InferStage(m, cfg.MaxBatch),
		PostStage(h, streamWorkers),
	)
}
