package track

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"skynet/internal/tensor"
)

// xcorrShapes are the depth-wise correlation geometries the SkyNet
// trackers actually run — the default config (32 channels, 4×4 exemplar
// over an 8×8 search map), the test-scale 64-channel variant, plus
// remainder shapes whose patch counts are not multiples of any blocking
// factor (odd sides, rectangular search maps, 1×1 exemplars).
var xcorrShapes = []struct{ c, hz, wz, hx, wx int }{
	{32, 4, 4, 8, 8},   // DefaultConfig geometry after stride-8 features
	{64, 4, 4, 8, 8},   // tinyTracker (width 0.125 SkyNet A) geometry
	{32, 2, 2, 5, 4},   // rectangular search map
	{3, 3, 3, 9, 7},    // odd everything
	{7, 1, 1, 6, 6},    // 1×1 exemplar: pure scaling
	{5, 5, 5, 13, 11},  // larger remainder shape
	{1, 2, 3, 4, 5},    // single channel, non-square exemplar
	{16, 4, 4, 17, 13}, // bigger map, prime-ish sides
}

func randT(rng *rand.Rand, dims ...int) *tensor.Tensor {
	t := tensor.New(dims...)
	t.RandNormal(rng, 0, 1)
	return t
}

// withKernels runs fn under purego and — when the binary has them — each
// asm kernel, restoring the previous kernel afterwards.
func withKernels(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	old := tensor.KernelName()
	defer func() {
		if err := tensor.SetKernel(old); err != nil {
			t.Fatalf("restoring kernel %q: %v", old, err)
		}
	}()
	for _, name := range []string{"purego", "avx2"} {
		if !tensor.HasKernel(name) {
			continue
		}
		if err := tensor.SetKernel(name); err != nil {
			t.Fatalf("SetKernel(%q): %v", name, err)
		}
		t.Run("kernel="+name, fn)
	}
}

// dwxcorrGEMM is the independent oracle for DWXCorrE: the im2col + GEMM
// lowering that used to be the production route. Each channel's search plane
// becomes a [hz*wz, oh*ow] patch matrix multiplied by the channel's exemplar
// row — how a convolution reaches tensor.MatMulInto — so it shares no loop
// with the direct correlation, and it accumulates k in ascending order, which
// is the direct loop's (ky, kx) order.
func dwxcorrGEMM(z, x *tensor.Tensor) *tensor.Tensor {
	c, hz, wz := z.Dim(0), z.Dim(1), z.Dim(2)
	hx, wx := x.Dim(1), x.Dim(2)
	oh, ow := hx-hz+1, wx-wz+1
	k, n := hz*wz, oh*ow
	out := tensor.New(c, oh, ow)
	col := tensor.New(k, n)
	for ch := 0; ch < c; ch++ {
		plane := tensor.FromSlice(x.Data[ch*hx*wx:(ch+1)*hx*wx], 1, hx, wx)
		tensor.Im2Col(col, plane, hz, wz, 1, 0)
		zrow := tensor.FromSlice(z.Data[ch*k:(ch+1)*k], 1, k)
		orow := tensor.FromSlice(out.Data[ch*n:(ch+1)*n], 1, n)
		tensor.MatMulInto(orow, zrow, col)
	}
	return out
}

// TestDWXCorrGEMMBitwiseMatchesNaive pins the production correlation (the
// direct loop) to the GEMM lowering bit for bit at every tracker shape, under
// every available kernel and at worker counts 1 and 8. Both accumulate k in
// ascending order, so this is exact equality, not a tolerance.
func TestDWXCorrGEMMBitwiseMatchesNaive(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		oldPar := tensor.MaxParallelism
		defer func() { tensor.MaxParallelism = oldPar }()
		for _, par := range []int{1, 8} {
			tensor.MaxParallelism = par
			for _, s := range xcorrShapes {
				rng := rand.New(rand.NewSource(int64(s.c*1000 + s.hx)))
				z := randT(rng, s.c, s.hz, s.wz)
				x := randT(rng, s.c, s.hx, s.wx)
				want := dwxcorrGEMM(z, x)
				got, err := DWXCorrE(z, x)
				if err != nil {
					t.Fatalf("direct %v: %v", s, err)
				}
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("par=%d shape=%v: bit mismatch at %d: direct %x gemm %x",
							par, s, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
					}
				}
			}
		}
	})
}

// TestDWXCorrEAllocatesOnlyTheResponse is the per-Step allocation contract:
// the correlation allocates what tensor.New of its response allocates and
// nothing else (the GEMM route built three views per channel: 292 per Step).
func TestDWXCorrEAllocatesOnlyTheResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z, x := randT(rng, 32, 4, 4), randT(rng, 32, 8, 8)
	dims := []int{32, 5, 5}
	var out *tensor.Tensor
	want := testing.AllocsPerRun(20, func() { out = tensor.New(dims[0], dims[1], dims[2]) })
	got := testing.AllocsPerRun(20, func() { out, _ = DWXCorrE(z, x) })
	runtime.KeepAlive(out)
	if got != want {
		t.Fatalf("DWXCorrE: %v allocs per call, want the response tensor's %v", got, want)
	}
}

// TestDWXCorrInt8Deterministic pins the int8 route bitwise across kernels
// and worker counts: integer accumulation is exact, so every configuration
// must produce the same dequantized response.
func TestDWXCorrInt8Deterministic(t *testing.T) {
	type key struct{ shape, idx int }
	golden := map[key]uint32{}
	first := true
	run := func(t *testing.T) {
		oldPar := tensor.MaxParallelism
		defer func() { tensor.MaxParallelism = oldPar }()
		for _, par := range []int{1, 8} {
			tensor.MaxParallelism = par
			for si, s := range xcorrShapes {
				rng := rand.New(rand.NewSource(int64(si + 7)))
				z := randT(rng, s.c, s.hz, s.wz)
				x := randT(rng, s.c, s.hx, s.wx)
				got, err := DWXCorrInt8(z, x)
				if err != nil {
					t.Fatalf("int8 %v: %v", s, err)
				}
				for i, v := range got.Data {
					bits := math.Float32bits(v)
					k := key{si, i}
					if prev, ok := golden[k]; ok {
						if prev != bits {
							t.Fatalf("par=%d shape=%v: int8 response differs from first run at %d", par, s, i)
						}
					} else if first {
						golden[k] = bits
					}
				}
			}
			first = false
		}
	}
	withKernels(t, run)
}

// TestDWXCorrInt8ApproximatesFloat bounds the int8 quantization error by
// the two operands' scales: |err| <= mult * k * something small relative to
// the response magnitude at tracker shapes.
func TestDWXCorrInt8ApproximatesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	z := randT(rng, 32, 4, 4)
	x := randT(rng, 32, 8, 8)
	want, err := DWXCorrE(z, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DWXCorrInt8(z, x)
	if err != nil {
		t.Fatal(err)
	}
	var maxAbs float64
	for _, v := range want.Data {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	for i := range want.Data {
		if diff := math.Abs(float64(got.Data[i] - want.Data[i])); diff > 0.05*maxAbs {
			t.Fatalf("int8 response off by %.4f (%.1f%% of peak) at %d", diff, 100*diff/maxAbs, i)
		}
	}
}

// TestDWXCorrErrors exercises the error API: malformed geometry must come
// back as an error from every E-variant and as a panic from the wrappers.
func TestDWXCorrErrors(t *testing.T) {
	z34 := tensor.New(3, 4, 4)
	x38 := tensor.New(3, 8, 8)
	cases := []struct {
		name string
		z, x *tensor.Tensor
	}{
		{"rank", tensor.New(3, 4), x38},
		{"channels", tensor.New(2, 4, 4), x38},
		{"too-large", tensor.New(3, 9, 9), x38},
	}
	for _, tc := range cases {
		if _, err := DWXCorrE(tc.z, tc.x); err == nil {
			t.Fatalf("%s: DWXCorrE accepted bad geometry", tc.name)
		}
		if _, err := DWXCorrNaive(tc.z, tc.x); err == nil {
			t.Fatalf("%s: DWXCorrNaive accepted bad geometry", tc.name)
		}
		if _, err := DWXCorrInt8(tc.z, tc.x); err == nil {
			t.Fatalf("%s: DWXCorrInt8 accepted bad geometry", tc.name)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("DWXCorr did not panic on bad geometry")
			}
		}()
		DWXCorr(tensor.New(2, 4, 4), x38)
	}()
	if _, err := DWXCorrBackwardE(z34, x38, tensor.New(3, 4, 4)); err == nil {
		t.Fatal("DWXCorrBackwardE accepted a wrong gradient shape")
	}
}

// TestQuantizeSym pins the quantizer's conventions: symmetric scale,
// round-half-to-even ties, zero tensors quantize to scale 1.
func TestQuantizeSym(t *testing.T) {
	dst := make([]int8, 4)
	if s := quantizeSym(dst, []float32{0, 0, 0, 0}); s != 1 {
		t.Fatalf("all-zero scale %v, want 1", s)
	}
	src := []float32{127, -127, 63.5, -0.5}
	scale := quantizeSym(dst, src)
	if scale != 1 {
		t.Fatalf("scale %v, want 1 for maxAbs 127", scale)
	}
	// 63.5 and -0.5 are exact ties: round-half-to-even gives 64 and -0.
	want := []int8{127, -127, 64, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("code[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
}

// TestStepBoxEValidates pins the service-boundary contract: malformed
// frames, boxes and features come back as errors, never panics, from both
// per-frame entry points.
func TestStepBoxEValidates(t *testing.T) {
	tr := tinyTracker(false, 5)
	masked := tinyTracker(true, 5)
	seq := testSequences(1)[0]
	zf := tr.ExemplarFeatures(seq)
	good := seq.Boxes[0]

	cases := []struct {
		name  string
		zf    *tensor.Tensor
		frame *tensor.Tensor
		box   [4]float64
	}{
		{"nil-frame", zf, nil, [4]float64{good.CX, good.CY, good.W, good.H}},
		{"rank-2-frame", zf, tensor.New(3, 4), [4]float64{good.CX, good.CY, good.W, good.H}},
		{"4-channel-frame", zf, tensor.New(4, 96, 96), [4]float64{good.CX, good.CY, good.W, good.H}},
		{"tiny-frame", zf, tensor.New(3, 1, 1), [4]float64{good.CX, good.CY, good.W, good.H}},
		{"nan-box", zf, seq.Frames[1], [4]float64{math.NaN(), good.CY, good.W, good.H}},
		{"zero-size-box", zf, seq.Frames[1], [4]float64{good.CX, good.CY, 0, good.H}},
		{"nil-features", nil, seq.Frames[1], [4]float64{good.CX, good.CY, good.W, good.H}},
		{"rank-2-features", tensor.New(4, 4), seq.Frames[1], [4]float64{good.CX, good.CY, good.W, good.H}},
	}
	for _, tc := range cases {
		b := good
		b.CX, b.CY, b.W, b.H = tc.box[0], tc.box[1], tc.box[2], tc.box[3]
		if _, err := tr.StepBoxE(tc.zf, tc.frame, b); err == nil {
			t.Fatalf("%s: StepBoxE accepted malformed input", tc.name)
		}
		if _, err := masked.PeakMaskE(tc.zf, tc.frame, b); err == nil {
			t.Fatalf("%s: PeakMaskE accepted malformed input", tc.name)
		}
	}
	if _, err := tr.ExemplarFeaturesFor(nil, good); err == nil {
		t.Fatal("ExemplarFeaturesFor accepted a nil frame")
	}
	if _, err := tr.PeakMaskE(zf, seq.Frames[1], good); err == nil {
		t.Fatal("PeakMaskE accepted a tracker without a mask head")
	}
}

func BenchmarkDWXCorr(b *testing.B) {
	for _, s := range []struct{ c, hz, wz, hx, wx int }{{32, 4, 4, 8, 8}, {64, 4, 4, 8, 8}} {
		rng := rand.New(rand.NewSource(1))
		z := randT(rng, s.c, s.hz, s.wz)
		x := randT(rng, s.c, s.hx, s.wx)
		name := fmt.Sprintf("%dx%dx%d_%dx%d", s.c, s.hz, s.wz, s.hx, s.wx)
		b.Run("direct/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = DWXCorrE(z, x)
			}
		})
		b.Run("gemm/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = dwxcorrGEMM(z, x)
			}
		})
		b.Run("int8/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = DWXCorrInt8(z, x)
			}
		})
	}
}
