package tensor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// packedShapes sweep the blocking of a pre-packed A: m below one micro-tile
// and above one m block, neither in 4ℕ; k of one step, of one AVX2 k unroll,
// around gemmKC and at i8KC; n inside one column block and across gemmNC.
var packedShapes = func() (s [][3]int) {
	for _, m := range []int{6, 67} {
		for _, n := range []int{20, gemmNC + 18} {
			for _, k := range []int{1, 4, 255, 256, 257, 1280} {
				s = append(s, [3]int{m, n, k})
			}
		}
	}
	return s
}()

// TestPackedAMatchesPerBlockPacking: a float product over A packed once
// (PackA, RowProduct.Packed) gives the bits of the same product packing A
// per column block, under every kernel and every epilogue mode — the bias,
// batch norm, the clamp, all of them and none —, on the blocked path and, as
// a band of a wider product, into a column window.
func TestPackedAMatchesPerBlockPacking(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(48))
		for i, s := range packedShapes {
			m, n, k := s[0], s[1], s[2]
			a, b := randMat(rng, m, k).Data, randMat(rng, k, n).Data
			packed := make([]float32, PackedLen(m, k))
			PackA(packed, a, m, k)
			var ep RowEpilogue // mode 0 none, 1 bias, 2 and batch norm, 3 bias and ReLU, 4 all, ReLU6
			mode := i % 5
			if mode >= 1 {
				ep.Bias = randMat(rng, 1, m).Data
			}
			if mode == 2 || mode == 4 {
				ep.Gamma, ep.Mean, ep.Inv, ep.Beta = randMat(rng, 1, m).Data, randMat(rng, 1, m).Data, randMat(rng, 1, m).Data, randMat(rng, 1, m).Data
			}
			if mode >= 3 {
				ep.ReLU, ep.Cap = true, float32(mode-3)*6
			}
			for _, ldc := range []int{n, n + 3} {
				p := RowProduct{M: m, N: n, K: k, Ldc: ldc, Ep: ep}
				if ldc > n {
					p.BandOf = n + 3
				}
				want, got := make([]float32, (m-1)*ldc+n), make([]float32, (m-1)*ldc+n)
				forceBlocked(func() {
					MatMulRowEpilogueInto(want, a, b, p)
					p.Packed = packed
					MatMulRowEpilogueInto(got, a, b, p)
				})
				if j := firstBitDiff(got, want); j >= 0 {
					t.Fatalf("m=%d n=%d k=%d ldc=%d epilogue %d: element %d = %v pre-packed, %v packed per block", m, n, k, ldc, mode, j, got[j], want[j])
				}
			}
		}
	})
}

// TestPackedInt8AMatchesPerBlockPacking is the int8 product's: codes packed
// once (PackInt8A, Int8Epilogue.Packed) give the per-block packing's codes,
// requantized with and without a bias and dequantized, dispatched and as a
// leaf into a column window, for k up to i8KC and one past it, where the
// small-problem kernel reads the codes as stored.
func TestPackedInt8AMatchesPerBlockPacking(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(49))
		for i, s := range append(packedShapes, [3]int{6, 20, i8KC + 1}) {
			m, n, k := s[0], s[1], s[2]
			a, b := randI8(rng, m*k), randI8(rng, k*n)
			packed := PackInt8A(a, m, k)
			ep := Int8Epilogue{Mult: make([]float32, m), Lo: -127, Hi: 127}
			if i%2 == 0 {
				ep.Bias = make([]int32, m)
			}
			for r := range ep.Mult {
				ep.Mult[r] = float32(rng.Float64() * 0.002)
				if ep.Bias != nil {
					ep.Bias[r] = int32(rng.Intn(20001) - 10000)
				}
			}
			for _, leaf := range []bool{false, true} {
				ep.Leaf, ep.Ldc, ep.Packed = leaf, 0, nil
				if leaf {
					ep.Ldc = n + 5
				}
				ldc := max(ep.Ldc, n)
				want8, got8 := make([]int8, (m-1)*ldc+n), make([]int8, (m-1)*ldc+n)
				wantF, gotF := make([]float32, (m-1)*ldc+n), make([]float32, (m-1)*ldc+n)
				withWorkers(3, func() {
					Int8GEMMRequantInto(want8, a, b, m, n, k, ep)
					Int8GEMMDequantInto(wantF, a, b, m, n, k, ep)
					ep.Packed = packed
					Int8GEMMRequantInto(got8, a, b, m, n, k, ep)
					Int8GEMMDequantInto(gotF, a, b, m, n, k, ep)
				})
				what := fmt.Sprintf("m=%d n=%d k=%d leaf=%v bias=%v", m, n, k, leaf, ep.Bias != nil)
				if !slices.Equal(got8, want8) {
					t.Fatalf("%s: requantized codes differ pre-packed", what)
				}
				if j := firstBitDiff(gotF, wantF); j >= 0 {
					t.Fatalf("%s: dequantized element %d = %v pre-packed, %v packed per block", what, j, gotF[j], wantF[j])
				}
			}
		}
	})
}
