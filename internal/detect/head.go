package detect

import (
	"fmt"
	"math"

	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// Head decodes and trains against the raw [N, A*5, Sh, Sw] output of a
// detection backbone. Channel layout per anchor a is
// [tx, ty, tw, th, tconf] at channels a*5..a*5+4. The box transform is the
// YOLOv2 parameterization:
//
//	bx = (σ(tx) + cellX) / Sw      bw = anchorW · exp(tw)
//	by = (σ(ty) + cellY) / Sh      bh = anchorH · exp(th)
//
// SkyNet's head drops the class outputs entirely (DAC-SDC is single-object
// detection), which is why the final layer has exactly 10 channels.
type Head struct {
	Anchors []Anchor
	// Classes enables the classification output the full YOLO detectors of
	// Table 1 carry: each anchor gains Classes logits after its five box
	// channels. SkyNet's contest head sets Classes = 0 ("removing the
	// classification output", §5.1), which is the NewHead default.
	Classes int
	// Loss weights; zero values select the darknet-style defaults.
	CoordScale float32
	ObjScale   float32
	NoObjScale float32
	ClassScale float32
	// ObjTargetOne trains the responsible anchor's confidence toward 1
	// instead of toward the decoded box's IoU — a stronger signal for the
	// small-object regime where IoU starts near zero.
	ObjTargetOne bool
}

// NewHead returns the SkyNet detection head (no class output) with the
// given anchors (DefaultAnchors if nil) and standard loss weights.
func NewHead(anchors []Anchor) *Head {
	if anchors == nil {
		anchors = DefaultAnchors
	}
	return &Head{Anchors: anchors, CoordScale: 5, ObjScale: 1, NoObjScale: 0.5, ClassScale: 1}
}

// NewClassHead returns a YOLO-style head with per-anchor class logits, the
// configuration the Table 1 reference detectors use.
func NewClassHead(anchors []Anchor, classes int) *Head {
	h := NewHead(anchors)
	h.Classes = classes
	return h
}

// perAnchor returns the channel count per anchor.
//
//skynet:hotpath
func (h *Head) perAnchor() int { return 5 + h.Classes }

// Channels returns the backbone output channel count the head expects
// (10 for the SkyNet contest head: 2 anchors × 5).
//
//skynet:hotpath
func (h *Head) Channels() int { return len(h.Anchors) * h.perAnchor() }

//skynet:hotpath
func (h *Head) dims(pred *tensor.Tensor) (n, sh, sw int) {
	if pred.Rank() != 4 || pred.Dim(1) != h.Channels() {
		panic(fmt.Sprintf("detect: head expects [N,%d,Sh,Sw] predictions, got %v", h.Channels(), pred.Shape()))
	}
	return pred.Dim(0), pred.Dim(2), pred.Dim(3)
}

// at returns the flat index of (sample i, channel c, cell y, cell x).
//
//skynet:hotpath
func at(pred *tensor.Tensor, i, c, y, x int) int {
	return ((i*pred.Dim(1)+c)*pred.Dim(2)+y)*pred.Dim(3) + x
}

// Decode returns the single most confident box per sample along with its
// confidence score — the DAC-SDC task is single-object, so no NMS is
// needed. A sample whose every confidence is NaN decodes to the zero box at
// confidence 0.
func (h *Head) Decode(pred *tensor.Tensor) ([]Box, []float64) {
	n, _, _ := h.dims(pred)
	boxes := make([]Box, n)
	confs := make([]float64, n)
	for i := 0; i < n; i++ {
		if box, conf, ci := h.best(pred, i); ci >= 0 {
			boxes[i], confs[i] = box, conf
		}
	}
	return boxes, confs
}

// best is the best-cell search of sample i: the box of the most confident
// anchor cell (the first in anchor, row, column order on a tie), its
// confidence, and the flat index of its confidence logit — -1 when no
// confidence exceeds -Inf (every one NaN).
//
//skynet:hotpath
func (h *Head) best(pred *tensor.Tensor, i int) (box Box, conf float64, ci int) {
	_, sh, sw := h.dims(pred)
	conf, ci = math.Inf(-1), -1
	for a := range h.Anchors {
		for y := 0; y < sh; y++ {
			for x := 0; x < sw; x++ {
				k := at(pred, i, a*h.perAnchor()+4, y, x)
				if c := float64(nn.Sigmoid(pred.Data[k])); c > conf {
					box, conf, ci = h.decodeCell(pred, i, a, y, x, sh, sw), c, k
				}
			}
		}
	}
	return box, conf, ci
}

//skynet:hotpath
func (h *Head) decodeCell(pred *tensor.Tensor, i, a, y, x, sh, sw int) Box {
	pa := h.perAnchor()
	tx := pred.Data[at(pred, i, a*pa+0, y, x)]
	ty := pred.Data[at(pred, i, a*pa+1, y, x)]
	tw := pred.Data[at(pred, i, a*pa+2, y, x)]
	th := pred.Data[at(pred, i, a*pa+3, y, x)]
	return Box{
		CX: (float64(nn.Sigmoid(tx)) + float64(x)) / float64(sw),
		CY: (float64(nn.Sigmoid(ty)) + float64(y)) / float64(sh),
		W:  h.Anchors[a].W * math.Exp(float64(tw)),
		H:  h.Anchors[a].H * math.Exp(float64(th)),
	}.Clip()
}

// DecodeWithClass returns, per sample, the most confident box together
// with the argmax class at its cell — the full-YOLO inference path.
func (h *Head) DecodeWithClass(pred *tensor.Tensor) ([]Box, []float64, []int) {
	if h.Classes <= 0 {
		panic("detect: DecodeWithClass on a classless head")
	}
	n, sh, sw := h.dims(pred)
	boxes := make([]Box, n)
	confs := make([]float64, n)
	classes := make([]int, n)
	for i := 0; i < n; i++ {
		box, conf, ci := h.best(pred, i)
		if ci < 0 {
			continue
		}
		boxes[i], confs[i] = box, conf
		clsV := float32(math.Inf(-1))
		for k := 0; k < h.Classes; k++ { // class k's logit is k+1 channels past the confidence
			if v := pred.Data[ci+(k+1)*sh*sw]; v > clsV {
				classes[i], clsV = k, v
			}
		}
	}
	return boxes, confs, classes
}

// Loss computes the YOLO-style regression loss of predictions against one
// ground-truth box per sample, returning the scalar loss and the gradient
// with respect to the raw predictions. The responsible cell/anchor gets
// coordinate and objectness terms; every other anchor position gets a
// down-weighted no-object confidence term.
func (h *Head) Loss(pred *tensor.Tensor, gts []Box) (float32, *tensor.Tensor) {
	return h.lossImpl(pred, gts, nil)
}

// LossWithClasses is Loss plus a softmax cross-entropy class term at the
// responsible cell, for heads built with NewClassHead. labels holds one
// class index per sample.
func (h *Head) LossWithClasses(pred *tensor.Tensor, gts []Box, labels []int) (float32, *tensor.Tensor) {
	if h.Classes <= 0 {
		panic("detect: LossWithClasses on a classless head")
	}
	if len(labels) != len(gts) {
		panic("detect: label count mismatch")
	}
	return h.lossImpl(pred, gts, labels)
}

func (h *Head) lossImpl(pred *tensor.Tensor, gts []Box, labels []int) (float32, *tensor.Tensor) {
	n, sh, sw := h.dims(pred)
	if len(gts) != n {
		panic("detect: ground-truth count mismatch")
	}
	grad := tensor.New(pred.Shape()...)
	var total float64
	norm := float32(n)
	for i, gt := range gts {
		cellX := int(gt.CX * float64(sw))
		cellY := int(gt.CY * float64(sh))
		if cellX >= sw {
			cellX = sw - 1
		}
		if cellY >= sh {
			cellY = sh - 1
		}
		respA := BestAnchor(gt, h.Anchors)
		for a := range h.Anchors {
			for y := 0; y < sh; y++ {
				for x := 0; x < sw; x++ {
					ci := at(pred, i, a*h.perAnchor()+4, y, x)
					tc := pred.Data[ci]
					sc := nn.Sigmoid(tc)
					if a == respA && y == cellY && x == cellX {
						// Coordinate loss.
						pa := h.perAnchor()
						txi := at(pred, i, a*pa+0, y, x)
						tyi := at(pred, i, a*pa+1, y, x)
						twi := at(pred, i, a*pa+2, y, x)
						thi := at(pred, i, a*pa+3, y, x)
						sx := nn.Sigmoid(pred.Data[txi])
						sy := nn.Sigmoid(pred.Data[tyi])
						targX := float32(gt.CX*float64(sw) - float64(cellX))
						targY := float32(gt.CY*float64(sh) - float64(cellY))
						targW := float32(math.Log(math.Max(gt.W/h.Anchors[a].W, 1e-6)))
						targH := float32(math.Log(math.Max(gt.H/h.Anchors[a].H, 1e-6)))
						dx := sx - targX
						dy := sy - targY
						dw := pred.Data[twi] - targW
						dh := pred.Data[thi] - targH
						cs := h.CoordScale
						total += float64(cs * (dx*dx + dy*dy + dw*dw + dh*dh))
						grad.Data[txi] += 2 * cs * dx * sx * (1 - sx) / norm
						grad.Data[tyi] += 2 * cs * dy * sy * (1 - sy) / norm
						grad.Data[twi] += 2 * cs * dw / norm
						grad.Data[thi] += 2 * cs * dh / norm
						// Objectness toward the decoded box's IoU (darknet
						// convention) or toward 1 when ObjTargetOne is set.
						target := float32(1)
						if !h.ObjTargetOne {
							db := h.decodeCell(pred, i, a, y, x, sh, sw)
							target = float32(db.IoU(gt))
						}
						dc := sc - target
						total += float64(h.ObjScale * dc * dc)
						grad.Data[ci] += 2 * h.ObjScale * dc * sc * (1 - sc) / norm
						// Class term (YOLO-style heads only): softmax CE
						// over the per-anchor class logits.
						if labels != nil && h.Classes > 0 {
							base := at(pred, i, a*pa+5, y, x)
							stride := sh * sw // channel stride at fixed (y,x)
							maxv := pred.Data[base]
							for k := 1; k < h.Classes; k++ {
								if v := pred.Data[base+k*stride]; v > maxv {
									maxv = v
								}
							}
							var sum float64
							for k := 0; k < h.Classes; k++ {
								sum += math.Exp(float64(pred.Data[base+k*stride] - maxv))
							}
							lbl := labels[i]
							total += float64(h.ClassScale) * (math.Log(sum) - float64(pred.Data[base+lbl*stride]-maxv))
							for k := 0; k < h.Classes; k++ {
								p := float32(math.Exp(float64(pred.Data[base+k*stride]-maxv)) / sum)
								t := float32(0)
								if k == lbl {
									t = 1
								}
								grad.Data[base+k*stride] += h.ClassScale * (p - t) / norm
							}
						}
					} else {
						dc := sc // target 0
						total += float64(h.NoObjScale * dc * dc)
						grad.Data[ci] += 2 * h.NoObjScale * dc * sc * (1 - sc) / norm
					}
				}
			}
		}
	}
	return float32(total / float64(n)), grad
}
