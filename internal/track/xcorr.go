// Package track implements the paper's §7 extension: Siamese object
// trackers in the style of SiamRPN++ (Li et al., 2019) and SiamMask (Wang
// et al., 2019), with swappable backbones so SkyNet can be compared against
// ResNet-50 and AlexNet on GOT-10k-style sequences (Tables 8 and 9). The
// tracker correlates exemplar features against search-region features with
// a depth-wise cross-correlation, classifies each response position as
// target/background, regresses box refinements, and (for the SiamMask
// variant) predicts a segmentation mask patch at the peak.
package track

import (
	"fmt"
	"math"

	"skynet/internal/tensor"
)

// Depth-wise cross-correlation is the per-frame hot path of the streaming
// tracker: every tracked frame correlates the cached exemplar features
// against fresh search features. Production has one correlation,
// DWXCorrInto, and it is the direct loop: each response element sums its
// hz×wz products in ascending (ky, kx) order, into a response the caller
// owns — the tracker's step workspace (tracker.go), so a step allocates
// nothing for it. At tracker shapes (a 4×4 exemplar over an 8×8 map) the
// im2col + GEMM lowering this replaced reached, at m = 1, the GEMM's
// small-problem kernel anyway, behind three tensor views and a patch matrix
// per channel; it lives on in xcorr_test.go as the independent oracle, and
// the two are bitwise equal because both accumulate in that order.
// DWXCorrNaive and DWXCorrInt8 (with quantizeSym) have no production caller:
// they stay only because bench/ still times them, and go when the benchmark
// stops calling them (ROADMAP, "One benchmark…").

// xcorrGeom validates a depth-wise correlation and returns its geometry.
//
//skynet:hotpath
func xcorrGeom(z, x *tensor.Tensor) (c, hz, wz, hx, wx, oh, ow int, err error) {
	if z.Rank() != 3 || x.Rank() != 3 {
		return 0, 0, 0, 0, 0, 0, 0, fmt.Errorf("track: xcorr wants [C,h,w] operands, got %v and %v", z.Shape(), x.Shape())
	}
	c, hz, wz = z.Dim(0), z.Dim(1), z.Dim(2)
	cx, hxx, wxx := x.Dim(0), x.Dim(1), x.Dim(2)
	if c != cx {
		return 0, 0, 0, 0, 0, 0, 0, fmt.Errorf("track: xcorr channel mismatch %d vs %d", c, cx)
	}
	hx, wx = hxx, wxx
	oh, ow = hx-hz+1, wx-wz+1
	if oh <= 0 || ow <= 0 {
		return 0, 0, 0, 0, 0, 0, 0, fmt.Errorf("track: exemplar %v larger than search %v", z.Shape(), x.Shape())
	}
	return c, hz, wz, hx, wx, oh, ow, nil
}

// xcorrScratch holds DWXCorrInt8's per-call lowering buffers, reused
// through a free list instead of allocated per call.
type xcorrScratch struct {
	zi8 []int8  // quantized exemplar codes
	xi8 []int8  // quantized search codes
	ci8 []int8  // int8 patch matrix
	acc []int32 // int32 accumulators, one response plane
}

var xcorrFree = tensor.FreeList[xcorrScratch]{Alloc: func() *xcorrScratch { return &xcorrScratch{} }}

// DWXCorrE computes the depth-wise cross-correlation of exemplar features z
// [C,hz,wz] against search features x [C,hx,wx]: each channel of z slides
// over the same channel of x, producing [C, hx-hz+1, wx-wz+1]. This is the
// correlation SiamRPN++ introduced to keep channel identity. It is
// DWXCorrInto a fresh response, the one allocation (tensor.New carries its
// own waiver); shape errors are returned.
//
//skynet:hotpath
func DWXCorrE(z, x *tensor.Tensor) (*tensor.Tensor, error) {
	c, _, _, _, _, oh, ow, err := xcorrGeom(z, x)
	if err != nil {
		return nil, err
	}
	out := tensor.New(c, oh, ow)
	return out, DWXCorrInto(out, z, x)
}

// DWXCorrInto correlates z against x as DWXCorrE does, into dst, which must
// be [C, hx-hz+1, wx-wz+1]. Shape errors are returned, never panics — the
// tracking service's steps run on it, where a malformed session request must
// become a 400, not kill a worker — and nothing is allocated.
//
//skynet:hotpath
func DWXCorrInto(dst, z, x *tensor.Tensor) error {
	c, hz, wz, hx, wx, oh, ow, err := xcorrGeom(z, x)
	if err != nil {
		return err
	}
	if dst.Rank() != 3 || dst.Dim(0) != c || dst.Dim(1) != oh || dst.Dim(2) != ow {
		return fmt.Errorf("track: xcorr response %v, want [%d %d %d]", dst.Shape(), c, oh, ow)
	}
	for ch := 0; ch < c; ch++ {
		zd := z.Data[ch*hz*wz : (ch+1)*hz*wz]
		xd := x.Data[ch*hx*wx : (ch+1)*hx*wx]
		od := dst.Data[ch*oh*ow : (ch+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float32
				for ky := 0; ky < hz; ky++ {
					xrow := xd[(oy+ky)*wx+ox:][:wz]
					for kx, zv := range zd[ky*wz : (ky+1)*wz] {
						s += zv * xrow[kx]
					}
				}
				od[oy*ow+ox] = s
			}
		}
	}
	return nil
}

// DWXCorrNaive is DWXCorrE under the name bench/ times it by
// (track.xcorr_naive_ms); it goes when the benchmark stops calling it.
func DWXCorrNaive(z, x *tensor.Tensor) (*tensor.Tensor, error) { return DWXCorrE(z, x) }

// quantizeSym quantizes src into int8 codes with a symmetric per-tensor
// scale (maxAbs/127) and returns the scale. An all-zero tensor gets scale
// 1 so dequantization stays finite.
//
//skynet:hotpath
func quantizeSym(dst []int8, src []float32) float32 {
	var maxAbs float32
	for _, v := range src {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	if maxAbs == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 1
	}
	scale := maxAbs / 127
	inv := 1 / float64(scale)
	for i, v := range src {
		// Round half to even, the quantized engine's convention
		// (quant.quantizeInto), so ties carry no directional bias.
		q := math.RoundToEven(float64(v) * inv)
		if q > 127 {
			q = 127
		}
		if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
	return scale
}

// DWXCorrInt8 computes the depth-wise cross-correlation through the int8
// engine: per-tensor symmetric quantization of both operands, int8 im2col,
// the int8×int8→int32 GEMM, and a dequantizing epilogue. The response is
// an approximation of the float path, error-bounded by
// TestDWXCorrInt8ApproximatesFloat; exact integer accumulation makes it
// bitwise deterministic across kernels and worker counts.
//
//skynet:hotpath
func DWXCorrInt8(z, x *tensor.Tensor) (*tensor.Tensor, error) {
	c, hz, wz, hx, wx, oh, ow, err := xcorrGeom(z, x)
	if err != nil {
		return nil, err
	}
	out := tensor.New(c, oh, ow)
	s := xcorrFree.Get()
	k, n := hz*wz, oh*ow
	if len(s.zi8) < c*k || len(s.xi8) < c*hx*wx || len(s.ci8) < k*n || len(s.acc) < n {
		//skynet:nolint hotalloc -- grow-once scratch: sized on the first frame of a geometry, reused afterwards
		*s = xcorrScratch{zi8: make([]int8, c*k), xi8: make([]int8, c*hx*wx), ci8: make([]int8, k*n), acc: make([]int32, n)}
	}
	zScale := quantizeSym(s.zi8[:c*k], z.Data)
	xScale := quantizeSym(s.xi8[:c*hx*wx], x.Data)
	mult := zScale * xScale
	for ch := 0; ch < c; ch++ {
		tensor.Im2ColInto(s.ci8[:k*n], s.xi8[ch*hx*wx:(ch+1)*hx*wx], 1, hx, wx, hz, wz, 1, 0)
		tensor.Int8GEMMInto(s.acc[:n], s.zi8[ch*k:(ch+1)*k], s.ci8[:k*n], 1, n, k)
		od := out.Data[ch*n : (ch+1)*n]
		for i, a := range s.acc[:n] {
			od[i] = float32(a) * mult
		}
	}
	xcorrFree.Put(s)
	return out, nil
}

// DWXCorrBackward propagates the response gradient to the search features
// (the exemplar branch is treated as a frozen template during training, a
// standard Siamese simplification): dx[c, y+ky, x+kx] += dresp[c,y,x] *
// z[c,ky,kx]. Shape errors are returned.
func DWXCorrBackward(z, x, dresp *tensor.Tensor) (*tensor.Tensor, error) {
	c, hz, wz, hx, wx, oh, ow, err := xcorrGeom(z, x)
	if err != nil {
		return nil, err
	}
	if dresp.Rank() != 3 || dresp.Dim(0) != c || dresp.Dim(1) != oh || dresp.Dim(2) != ow {
		return nil, fmt.Errorf("track: xcorr gradient shape %v, want [%d %d %d]", dresp.Shape(), c, oh, ow)
	}
	dx := tensor.New(c, hx, wx)
	for ch := 0; ch < c; ch++ {
		zd := z.Data[ch*hz*wz:]
		dd := dresp.Data[ch*oh*ow:]
		dxd := dx.Data[ch*hx*wx:]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := dd[oy*ow+ox]
				if g == 0 {
					continue
				}
				for ky := 0; ky < hz; ky++ {
					dxrow := dxd[(oy+ky)*wx+ox:]
					zrow := zd[ky*wz:]
					for kx := 0; kx < wz; kx++ {
						dxrow[kx] += g * zrow[kx]
					}
				}
			}
		}
	}
	return dx, nil
}
