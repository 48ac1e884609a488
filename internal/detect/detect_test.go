package detect

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"skynet/internal/nn"
	"skynet/internal/tensor"
)

func TestIoUIdentical(t *testing.T) {
	b := Box{CX: 0.5, CY: 0.5, W: 0.2, H: 0.3}
	if iou := b.IoU(b); math.Abs(iou-1) > 1e-9 {
		t.Fatalf("IoU(b,b) = %v, want 1", iou)
	}
}

func TestIoUDisjoint(t *testing.T) {
	a := Box{CX: 0.2, CY: 0.2, W: 0.1, H: 0.1}
	b := Box{CX: 0.8, CY: 0.8, W: 0.1, H: 0.1}
	if iou := a.IoU(b); iou != 0 {
		t.Fatalf("disjoint IoU = %v, want 0", iou)
	}
}

func TestIoUKnownValue(t *testing.T) {
	// Two unit-offset half-overlapping boxes: inter = 0.5*1, union = 1.5.
	a := Box{CX: 0.25, CY: 0.5, W: 0.5, H: 1}
	b := Box{CX: 0.5, CY: 0.5, W: 0.5, H: 1}
	want := 0.25 / 0.75
	if iou := a.IoU(b); math.Abs(iou-want) > 1e-9 {
		t.Fatalf("IoU = %v, want %v", iou, want)
	}
}

// Property: IoU is symmetric and bounded in [0,1].
func TestQuickIoUSymmetricBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rb := func() Box {
			return Box{CX: rng.Float64(), CY: rng.Float64(),
				W: 0.01 + 0.5*rng.Float64(), H: 0.01 + 0.5*rng.Float64()}
		}
		a, b := rb(), rb()
		ab, ba := a.IoU(b), b.IoU(a)
		return math.Abs(ab-ba) < 1e-12 && ab >= 0 && ab <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClip(t *testing.T) {
	b := Box{CX: 0.05, CY: 0.5, W: 0.3, H: 0.2}.Clip()
	x1, _, _, _ := b.Corners()
	if x1 < -1e-9 {
		t.Fatalf("Clip left edge %v, want >= 0", x1)
	}
	inside := Box{CX: 0.5, CY: 0.5, W: 0.2, H: 0.2}
	if inside.Clip() != inside {
		t.Fatal("Clip must not modify a box already inside the image")
	}
}

func TestBestAnchor(t *testing.T) {
	small := Box{W: 0.05, H: 0.08}
	large := Box{W: 0.3, H: 0.4}
	if BestAnchor(small, DefaultAnchors) != 0 {
		t.Fatal("small box should match the small anchor")
	}
	if BestAnchor(large, DefaultAnchors) != 1 {
		t.Fatal("large box should match the large anchor")
	}
}

func TestHeadChannels(t *testing.T) {
	h := NewHead(nil)
	if h.Channels() != 10 {
		t.Fatalf("the SkyNet head must have 10 output channels (2 anchors × 5), got %d", h.Channels())
	}
}

// TestEncodeDecodeIdentity: placing the exact inverse-transformed values in
// the responsible cell must decode back to the ground-truth box.
func TestEncodeDecodeIdentity(t *testing.T) {
	h := NewHead(nil)
	sh, sw := 4, 6
	gt := Box{CX: 0.42, CY: 0.61, W: 0.07, H: 0.12}
	pred := tensor.New(1, h.Channels(), sh, sw)
	pred.Fill(-20) // all confidences ≈ 0
	a := BestAnchor(gt, h.Anchors)
	cx, cy := int(gt.CX*float64(sw)), int(gt.CY*float64(sh))
	logit := func(p float64) float32 { return float32(math.Log(p / (1 - p))) }
	pred.Set(logit(gt.CX*float64(sw)-float64(cx)), 0, a*5+0, cy, cx)
	pred.Set(logit(gt.CY*float64(sh)-float64(cy)), 0, a*5+1, cy, cx)
	pred.Set(float32(math.Log(gt.W/h.Anchors[a].W)), 0, a*5+2, cy, cx)
	pred.Set(float32(math.Log(gt.H/h.Anchors[a].H)), 0, a*5+3, cy, cx)
	pred.Set(10, 0, a*5+4, cy, cx) // confident
	boxes, confs := h.Decode(pred)
	if confs[0] < 0.99 {
		t.Fatalf("expected high confidence, got %v", confs[0])
	}
	if iou := boxes[0].IoU(gt); iou < 0.999 {
		t.Fatalf("decode∘encode IoU = %v, want ≈ 1 (box %+v)", iou, boxes[0])
	}
}

func TestLossZeroAtPerfectPrediction(t *testing.T) {
	h := NewHead(nil)
	sh, sw := 4, 4
	gt := Box{CX: 0.3, CY: 0.3, W: 0.06, H: 0.1}
	pred := tensor.New(1, h.Channels(), sh, sw)
	pred.Fill(-30)
	a := BestAnchor(gt, h.Anchors)
	cx, cy := int(gt.CX*float64(sw)), int(gt.CY*float64(sh))
	logit := func(p float64) float32 { return float32(math.Log(p / (1 - p))) }
	pred.Set(logit(gt.CX*float64(sw)-float64(cx)), 0, a*5+0, cy, cx)
	pred.Set(logit(gt.CY*float64(sh)-float64(cy)), 0, a*5+1, cy, cx)
	pred.Set(float32(math.Log(gt.W/h.Anchors[a].W)), 0, a*5+2, cy, cx)
	pred.Set(float32(math.Log(gt.H/h.Anchors[a].H)), 0, a*5+3, cy, cx)
	pred.Set(30, 0, a*5+4, cy, cx) // conf ≈ 1 = IoU
	loss, _ := h.Loss(pred, []Box{gt})
	if loss > 1e-3 {
		t.Fatalf("loss at perfect prediction = %v, want ≈ 0", loss)
	}
}

func TestLossGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewHead(nil)
	pred := tensor.New(2, h.Channels(), 3, 3)
	pred.RandNormal(rng, 0, 0.5)
	gts := []Box{
		{CX: 0.4, CY: 0.6, W: 0.08, H: 0.1},
		{CX: 0.7, CY: 0.2, W: 0.2, H: 0.3},
	}
	_, grad := h.Loss(pred, gts)
	const eps, tol = 1e-3, 2e-3
	idxs := []int{0, 5, 13, 40, 88, 100, 121, 150}
	for _, i := range idxs {
		if i >= pred.Len() {
			continue
		}
		orig := pred.Data[i]
		pred.Data[i] = orig + eps
		lp, _ := h.Loss(pred, gts)
		pred.Data[i] = orig - eps
		lm, _ := h.Loss(pred, gts)
		pred.Data[i] = orig
		num := float64(lp-lm) / (2 * eps)
		if math.Abs(num-float64(grad.Data[i])) > tol*(1+math.Abs(num)) {
			t.Fatalf("loss grad mismatch at %d: analytic %v numeric %v", i, grad.Data[i], num)
		}
	}
}

// makeToySamples builds images whose pixel values directly encode the box
// location so that a small network can learn the mapping.
func makeToySamples(rng *rand.Rand, n, c, h, w int) []Sample {
	samples := make([]Sample, n)
	for i := range samples {
		b := Box{
			CX: 0.2 + 0.6*rng.Float64(),
			CY: 0.2 + 0.6*rng.Float64(),
			W:  0.08, H: 0.12,
		}
		img := tensor.New(c, h, w)
		img.RandNormal(rng, 0, 0.05)
		// Bright blob at the object location.
		px, py := int(b.CX*float64(w)), int(b.CY*float64(h))
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				y, x := py+dy, px+dx
				if y >= 0 && y < h && x >= 0 && x < w {
					for ch := 0; ch < c; ch++ {
						img.Set(1, ch, y, x)
					}
				}
			}
		}
		samples[i] = Sample{Image: img, Box: b}
	}
	return samples
}

// TestTrainDetectorLearns trains a tiny conv net on the toy task and
// checks that mean IoU improves substantially over the untrained model.
func TestTrainDetectorLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	head := NewHead(nil)
	g := nn.Sequential(
		nn.NewConv2D(rng, 1, 8, 3, 1, 1, false),
		nn.NewBatchNorm(8),
		nn.NewReLU6(),
		nn.NewMaxPool(2),
		nn.NewConv2D(rng, 8, 16, 3, 1, 1, false),
		nn.NewBatchNorm(16),
		nn.NewReLU6(),
		nn.NewMaxPool(2),
		nn.NewPWConv1(rng, 16, head.Channels(), true),
	)
	train := makeToySamples(rng, 48, 1, 16, 16)
	val := makeToySamples(rng, 16, 1, 16, 16)
	before := MeanIoU(g, head, val, 8)
	TrainDetector(g, head, train, TrainConfig{
		Epochs:    30,
		BatchSize: 8,
		LR:        nn.LRSchedule{Start: 0.01, End: 0.001, Epochs: 30},
	})
	after := MeanIoU(g, head, val, 8)
	if after < before+0.1 || after < 0.2 {
		t.Fatalf("training did not help: IoU %v -> %v", before, after)
	}
}

func TestBatchStacksImages(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := makeToySamples(rng, 5, 2, 4, 4)
	x, boxes := Batch(samples, 1, 4)
	if x.Dim(0) != 3 || x.Dim(1) != 2 {
		t.Fatalf("batch shape %v", x.Shape())
	}
	if len(boxes) != 3 || boxes[0] != samples[1].Box {
		t.Fatal("batch boxes wrong")
	}
	if x.At(2, 0, 0, 0) != samples[3].Image.At(0, 0, 0) {
		t.Fatal("batch image data wrong")
	}
}

func TestObjTargetOneGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	h := NewHead(nil)
	h.ObjTargetOne = true
	pred := tensor.New(1, h.Channels(), 3, 3)
	pred.RandNormal(rng, 0, 0.5)
	gts := []Box{{CX: 0.4, CY: 0.6, W: 0.08, H: 0.1}}
	_, grad := h.Loss(pred, gts)
	const eps, tol = 1e-3, 2e-3
	for _, i := range []int{2, 11, 29, 44, 61, 80} {
		orig := pred.Data[i]
		pred.Data[i] = orig + eps
		lp, _ := h.Loss(pred, gts)
		pred.Data[i] = orig - eps
		lm, _ := h.Loss(pred, gts)
		pred.Data[i] = orig
		num := float64(lp-lm) / (2 * eps)
		if math.Abs(num-float64(grad.Data[i])) > tol*(1+math.Abs(num)) {
			t.Fatalf("ObjTargetOne grad mismatch at %d: %v vs %v", i, grad.Data[i], num)
		}
	}
}

func TestObjTargetOnePushesConfidenceUp(t *testing.T) {
	// With target 1, the responsible cell's confidence gradient must be
	// negative (pushing the logit up) even when the decoded IoU is 0.
	h := NewHead(nil)
	h.ObjTargetOne = true
	pred := tensor.New(1, h.Channels(), 2, 2)
	gt := Box{CX: 0.3, CY: 0.3, W: 0.05, H: 0.05}
	_, grad := h.Loss(pred, []Box{gt})
	a := BestAnchor(gt, h.Anchors)
	ci := ((0*pred.Dim(1)+a*5+4)*2+0)*2 + 0
	if grad.Data[ci] >= 0 {
		t.Fatalf("responsible confidence gradient %v, want negative", grad.Data[ci])
	}
}

func TestClassHeadChannels(t *testing.T) {
	h := NewClassHead(nil, 12)
	// 2 anchors × (5 + 12 classes) = 34.
	if h.Channels() != 34 {
		t.Fatalf("class head channels %d, want 34", h.Channels())
	}
}

func TestClassHeadLossGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	h := NewClassHead(nil, 3)
	pred := tensor.New(1, h.Channels(), 3, 3)
	pred.RandNormal(rng, 0, 0.5)
	gts := []Box{{CX: 0.4, CY: 0.6, W: 0.08, H: 0.1}}
	labels := []int{2}
	_, grad := h.LossWithClasses(pred, gts, labels)
	const eps, tol = 1e-3, 2e-3
	for _, i := range []int{1, 17, 44, 50, 61, 90, 120, 143} {
		if i >= pred.Len() {
			continue
		}
		orig := pred.Data[i]
		pred.Data[i] = orig + eps
		lp, _ := h.LossWithClasses(pred, gts, labels)
		pred.Data[i] = orig - eps
		lm, _ := h.LossWithClasses(pred, gts, labels)
		pred.Data[i] = orig
		num := float64(lp-lm) / (2 * eps)
		if math.Abs(num-float64(grad.Data[i])) > tol*(1+math.Abs(num)) {
			t.Fatalf("class loss grad mismatch at %d: %v vs %v", i, grad.Data[i], num)
		}
	}
}

func TestDecodeWithClassPicksLabeledClass(t *testing.T) {
	h := NewClassHead(nil, 4)
	pa := 5 + 4
	pred := tensor.New(1, h.Channels(), 2, 2)
	pred.Fill(-10)
	// Confident anchor 1 at cell (1,0) with class 3 dominant.
	pred.Set(8, 0, 1*pa+4, 1, 0)
	pred.Set(5, 0, 1*pa+5+3, 1, 0)
	boxes, confs, classes := h.DecodeWithClass(pred)
	if classes[0] != 3 {
		t.Fatalf("decoded class %d, want 3", classes[0])
	}
	if confs[0] < 0.99 {
		t.Fatalf("confidence %v", confs[0])
	}
	if boxes[0].CY < 0.5 {
		t.Fatalf("decoded box %v not in the bottom half", boxes[0])
	}
}

func TestClasslessHeadPanicsOnClassAPIs(t *testing.T) {
	h := NewHead(nil)
	pred := tensor.New(1, h.Channels(), 2, 2)
	for name, f := range map[string]func(){
		"DecodeWithClass": func() { h.DecodeWithClass(pred) },
		"LossWithClasses": func() { h.LossWithClasses(pred, []Box{{}}, []int{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a classless head must panic", name)
				}
			}()
			f()
		}()
	}
}

// TestPostprocessRefusesNonFinitePredictions: a prediction that decodes to no
// finite detection — every confidence NaN, as a frame of overflowing pixels
// leaves it, or a NaN box — is ErrNonFinite from Postprocess, not the zero
// box at confidence 0, while Decode, which evaluation and training read,
// still gives that zero box.
func TestPostprocessRefusesNonFinitePredictions(t *testing.T) {
	head := NewHead(nil)
	nan := float32(math.NaN())
	allNaN := tensor.New(1, head.Channels(), 2, 2)
	allNaN.Fill(nan)
	nanBox := tensor.New(1, head.Channels(), 2, 2)
	nanBox.Data[at(nanBox, 0, 0, 0, 0)] = nan // anchor 0's tx at the most confident cell
	nanBox.Data[at(nanBox, 0, 4, 0, 0)] = 5
	for name, pred := range map[string]*tensor.Tensor{"every confidence NaN": allNaN, "a NaN box": nanBox} {
		f := &Frame{Pred: pred}
		if err := Postprocess(head, f); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: Postprocess gave %v with box %+v conf %v, want ErrNonFinite", name, err, f.Box, f.Conf)
		}
	}
	boxes, confs := head.Decode(allNaN)
	if boxes[0] != (Box{}) || confs[0] != 0 {
		t.Fatalf("Decode of an all-NaN prediction: %+v conf %v, want the zero box at 0", boxes[0], confs[0])
	}
}
