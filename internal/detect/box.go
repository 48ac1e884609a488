// Package detect implements the single-object detection back-end the paper
// attaches to every backbone: a YOLO-style bounding-box regression head with
// two anchors and no classification output (Table 3's final 10-channel
// point-wise convolution = 2 anchors × (tx, ty, tw, th, confidence)),
// together with IoU utilities, the detection loss, and the DAC-SDC accuracy
// metric R_IoU (Equation 2).
package detect

import "math"

// Box is an axis-aligned bounding box in normalized image coordinates
// (center x/y and width/height, all in [0,1]).
type Box struct {
	CX, CY, W, H float64
}

// Corners returns the (x1, y1, x2, y2) corner representation.
//
//skynet:hotpath
func (b Box) Corners() (x1, y1, x2, y2 float64) {
	return b.CX - b.W/2, b.CY - b.H/2, b.CX + b.W/2, b.CY + b.H/2
}

// Area returns the box area (relative to the image area).
func (b Box) Area() float64 { return b.W * b.H }

// IoU returns the intersection-over-union of two boxes, in [0,1].
func (b Box) IoU(o Box) float64 {
	ax1, ay1, ax2, ay2 := b.Corners()
	bx1, by1, bx2, by2 := o.Corners()
	ix := math.Min(ax2, bx2) - math.Max(ax1, bx1)
	iy := math.Min(ay2, by2) - math.Max(ay1, by1)
	if ix <= 0 || iy <= 0 {
		return 0
	}
	inter := ix * iy
	union := b.Area() + o.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// Clip limits the box to the unit image, preserving the center format.
// Boxes already inside the image are returned unchanged.
//
//skynet:hotpath
func (b Box) Clip() Box {
	x1, y1, x2, y2 := b.Corners()
	if x1 >= 0 && y1 >= 0 && x2 <= 1 && y2 <= 1 {
		return b
	}
	x1, y1 = math.Max(0, x1), math.Max(0, y1)
	x2, y2 = math.Min(1, x2), math.Min(1, y2)
	if x2 < x1 {
		x2 = x1
	}
	if y2 < y1 {
		y2 = y1
	}
	return Box{CX: (x1 + x2) / 2, CY: (y1 + y2) / 2, W: x2 - x1, H: y2 - y1}
}

// Anchor is a width/height prior used by the regression head.
type Anchor struct {
	W, H float64
}

// DefaultAnchors are the two priors used by the SkyNet head, sized for the
// DAC-SDC small-object regime (91% of boxes below 9% of the image area,
// Figure 6): a small prior near the distribution mode and a larger one for
// the tail.
var DefaultAnchors = []Anchor{
	{W: 0.06, H: 0.10},
	{W: 0.18, H: 0.28},
}

// anchorIoU returns the IoU between a ground-truth box and an anchor when
// both are centered at the origin — the standard anchor-matching rule.
func anchorIoU(b Box, a Anchor) float64 {
	iw := math.Min(b.W, a.W)
	ih := math.Min(b.H, a.H)
	inter := iw * ih
	union := b.W*b.H + a.W*a.H - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// BestAnchor returns the index of the anchor with maximum IoU to the box.
func BestAnchor(b Box, anchors []Anchor) int {
	best, bestIoU := 0, -1.0
	for i, a := range anchors {
		if iou := anchorIoU(b, a); iou > bestIoU {
			best, bestIoU = i, iou
		}
	}
	return best
}
