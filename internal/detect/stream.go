package detect

// Live detection on the streaming executor: the three merged stages of
// §6.3/Figure 10 (fetch+pre-process, batched inference, post-process)
// expressed as pipeline.StageSpec values over a stream of Frames. The
// inference stage is the paper's batched one — frames are micro-batched,
// stacked into a single [B,C,H,W] forward pass, and each frame gets a view of
// its rows of the head output so post-processing stays per-item.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"skynet/internal/pipeline"
	"skynet/internal/tensor"
)

// Frame is one unit of work flowing through the live detection pipeline.
// Stages fill in their field and pass the frame along. The stages read Image
// in place and never write it; the producer hands it over with the frame and
// must not write it until the frame comes back out. What a stage produces is
// handed on the same way: Pred may be a view of the one output of a batched
// forward, which nothing writes once InferStage has passed the frame on.
type Frame struct {
	Image *tensor.Tensor // [C,H,W] input scene (set by the producer)
	GT    Box            // optional ground truth, carried through for scoring
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

// Preprocess is the per-frame fetch/pre-process transform: it validates the
// input, which the later stages then read in place (see Frame). It allocates
// nothing and is safe to call concurrently.
//
//skynet:hotpath
func Preprocess(f *Frame) error {
	if f.Image == nil {
		return errors.New("detect: frame has no image")
	}
	if f.Image.Rank() != 3 {
		return fmt.Errorf("detect: frame image rank %d, want [C,H,W]", f.Image.Rank())
	}
	return nil
}

// PreStage returns the merged fetch/pre-process stage over Preprocess.
func PreStage() pipeline.StageSpec {
	return pipeline.StageSpec{
		Name: pipeline.StagePre,
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

// ErrNonFinite is Postprocess's error for a prediction that decodes to no
// finite box, as a frame whose pixels overflow the forward leaves it.
var ErrNonFinite = errors.New("detect: the prediction decodes to no finite box")

// InferBatch runs one forward pass over the frames and hands each frame its
// prediction: no copy is made on the way in or out. A batch of one — every op
// of a live stream — is not stacked: the model is handed a recycled [1,C,H,W]
// view of the frame's Image (views), which neither engine reads or keeps once
// Forward has returned, and the frame's Pred is the tensor Forward returned,
// the one tensor allocated (its header and its data). A larger batch is
// stacked into one [B,C,H,W] tensor and each frame's Pred is a [1,ch,Sh,Sw]
// view of its rows of the one output (a header each), which both engines hand
// to the caller. Frames of one call must share a shape: a stack has one H×W,
// so a mixed batch is an error, never a frame forwarded at its neighbour's
// size. Calls may share an nn.Graph or quant.QuantizedModel: each forward runs
// on an executor of its own. InferBatch's own work is in stack and handOver,
// which the hotpath checkers guard; the forward between them is the model's.
func InferBatch(m Model, frames []*Frame) error {
	if len(frames) == 0 {
		return nil
	}
	x, err := stack(frames)
	if err != nil {
		return err
	}
	pred := m.Forward(x, false)
	if len(frames) == 1 {
		x.Data = nil // a parked view must not keep the frame alive
		views.Put(x)
	}
	return handOver(frames, pred)
}

// stack validates a non-empty batch and returns the model's input: a lone
// frame's recycled [1,C,H,W] view, or the frames stacked.
//
//skynet:hotpath
func stack(frames []*Frame) (*tensor.Tensor, error) {
	for i, f := range frames {
		if err := Preprocess(f); err != nil {
			return nil, err
		}
		if !f.Image.SameShape(frames[0].Image) {
			return nil, fmt.Errorf("detect: frame %d of the batch is %v, frame 0 is %v", i, f.Image.Shape(), frames[0].Image.Shape())
		}
	}
	img := frames[0].Image
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	if len(frames) == 1 {
		x := views.Get()
		if x.Rank() != 4 || x.Dim(1) != c || x.Dim(2) != h || x.Dim(3) != w {
			x = tensor.FromSlice(img.Data, 1, c, h, w)
		}
		x.Data = img.Data
		return x, nil
	}
	x := tensor.New(len(frames), c, h, w)
	for i, f := range frames {
		copy(x.Data[i*img.Len():], f.Image.Data)
	}
	return x, nil
}

// handOver gives each frame its prediction from the batch's output: a lone
// frame the output itself, a larger batch's frames views of its rows.
//
//skynet:hotpath
func handOver(frames []*Frame, pred *tensor.Tensor) error {
	if pred.Rank() != 4 || pred.Dim(0) != len(frames) {
		return fmt.Errorf("detect: model returned %v for a batch of %d", pred.Shape(), len(frames))
	}
	if len(frames) == 1 {
		frames[0].Pred = pred
		return nil
	}
	ch, sh, sw := pred.Dim(1), pred.Dim(2), pred.Dim(3)
	per := ch * sh * sw
	for i, f := range frames {
		f.Pred = tensor.FromSlice(pred.Data[i*per:(i+1)*per:(i+1)*per], 1, ch, sh, sw)
	}
	return nil
}

// views recycles the [1,C,H,W] headers InferBatch hands a model for a lone
// frame (stack replaces one of another geometry).
var views = tensor.FreeList[tensor.Tensor]{Alloc: func() *tensor.Tensor { return new(tensor.Tensor) }}

// Postprocess decodes the single best box and its confidence from the
// frame's raw head output: one best-cell search, nothing allocated. A
// prediction that decodes to no finite box (every confidence NaN, or a NaN
// box) is ErrNonFinite: no box is invented for it. The head is only read, so
// it is safe to call concurrently.
//
//skynet:hotpath
func Postprocess(h *Head, f *Frame) error {
	if f.Pred == nil {
		return errors.New("detect: frame reached post-processing without a prediction")
	}
	if p := f.Pred; p.Rank() != 4 || p.Dim(0) != 1 || p.Dim(1) != h.Channels() {
		return fmt.Errorf("detect: prediction %v, the head decodes [1,%d,Sh,Sw]", p.Shape(), h.Channels())
	}
	// A found cell's confidence is a sigmoid, and a clipped box is either in
	// the unit square or has a NaN field: the sum is finite or NaN.
	box, conf, ci := h.best(f.Pred, 0)
	if ci < 0 || math.IsNaN(box.CX+box.CY+box.W+box.H) {
		return ErrNonFinite
	}
	f.Box, f.Conf = box, conf
	return nil
}

// InferStage returns the micro-batched DNN inference stage of §6.3: the
// pre-processed frames that queued while the previous forward ran, up to
// maxBatch of them, go through InferBatch as one forward, and the stage returns
// the items it was given, each frame now holding its prediction. What the
// micro-batch buys on a CPU is sample-level parallelism without joins: once it
// holds a frame for every core the model runs it as lanes, each core taking
// whole frames through the network on its own one-frame set of feature-map
// buffers and meeting the others once per forward, not once per layer — as the
// paper's batch shares one set of on-chip buffers among four frames (§6.2,
// Figure 9). Every run of an executor shares the stage, which holds a lock
// around its one frame list and the forward that reads it.
func InferStage(m Model, maxBatch int) pipeline.StageSpec {
	s := &inferStage{m: m}
	return pipeline.StageSpec{Name: pipeline.StageInfer, MaxBatch: maxBatch, Batch: s.batch}
}

type inferStage struct {
	m      Model
	mu     sync.Mutex
	frames []*Frame
}

func (s *inferStage) batch(_ context.Context, items []any) ([]any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() { clear(s.frames) }() // the list must not keep passed-on frames alive
	s.frames = s.frames[:0]
	for _, v := range items {
		f, err := asFrame(pipeline.StageInfer, v)
		if err != nil {
			return nil, err
		}
		s.frames = append(s.frames, f)
	}
	if err := InferBatch(s.m, s.frames); err != nil {
		return nil, err
	}
	return items, nil
}

// PostStage returns the post-processing stage: decode the single best box
// and its confidence from the raw head output.
func PostStage(h *Head) pipeline.StageSpec {
	return pipeline.StageSpec{
		Name: pipeline.StagePost,
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

// NewStreamExecutor assembles the full three-stage §6.3 executor for a
// model+head pair: pre-process, micro-batched inference and post-process,
// one goroutine each, with frames delivered in input order. The inter-stage
// queues hold MaxBatch frames, so a full batch can queue behind the forward
// in flight without stalling the pre-process stage.
func NewStreamExecutor(m Model, h *Head, cfg StreamConfig) (*pipeline.Executor, error) {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4
	}
	return pipeline.NewExecutor(cfg.MaxBatch,
		PreStage(),
		InferStage(m, cfg.MaxBatch),
		PostStage(h),
	)
}
