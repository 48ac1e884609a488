package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The row-kernel sweeps. Each holds one row routine under the vector kernels
// to the same routine under SetKernel("purego") — the Go loop production
// runs on purego builds and other architectures — bit for bit, over every
// length 0..2·lane+1 at every start offset 0..lane-1 inside a larger slice
// whose other elements are sentinels: the two whole buffers are compared, so
// a kernel that writes before or after its row fails like one that computes
// a wrong bit, and the -race and checkptr builds see one that reads there.
// On a build or host without the vector kernels both sides are the Go loop
// and the tests pass trivially. (The routines whose Go loop lives in another
// package — depth-wise rows, the pools, quantise and dequantise — are swept
// where that loop is: internal/nn and internal/quant.)

// vectorKernel names the kernel the sweeps compare against purego.
func vectorKernel() string {
	if HasKernel("avx2") {
		return "avx2"
	}
	return "purego"
}

// sweepRows calls fn with every row length and start offset the sweeps
// cover for a routine of the given lane count.
func sweepRows(lane int, fn func(n, off int)) {
	for n := 0; n <= 2*lane+1; n++ {
		for off := 0; off < lane; off++ {
			fn(n, off)
		}
	}
}

const sweepGuard = 32 // sentinels on either side of a swept row

// guarded returns a buffer of sentinels with row copied in at offset off past
// the leading guard, and the window of it that is the row.
func guarded[T any](row []T, off int, sentinel T) (buf, window []T) {
	buf = make([]T, sweepGuard+off+len(row)+sweepGuard)
	for i := range buf {
		buf[i] = sentinel
	}
	window = buf[sweepGuard+off : sweepGuard+off+len(row)]
	copy(window, row)
	return buf, window
}

// specialF32 is what the float sweeps salt their rows with: NaNs of both
// signs, quiet and signalling, with payloads; both zeros and infinities;
// denormals; the largest finite values; the clamp's own bounds.
var specialF32 = []float32{
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
	math.Float32frombits(0x7fc12345), math.Float32frombits(0xffd54321),
	math.Float32frombits(0x7f800001), math.Float32frombits(0xffa00000),
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(1), -math.Float32frombits(1), 1e-40, -1e-40,
	math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32,
	6, -6, 5.9999995, 6.0000005,
}

// saltedRow draws n values, about one in four of them special.
func saltedRow(rng *rand.Rand, n int) []float32 {
	row := make([]float32, n)
	for i := range row {
		if rng.Intn(4) == 0 {
			row[i] = specialF32[rng.Intn(len(specialF32))]
		} else {
			row[i] = float32(rng.NormFloat64() * 4)
		}
	}
	return row
}

// withoutNaN returns row with its NaNs replaced. The sweeps never let two
// NaNs meet in one operation: which of them survives is the instruction's
// first source — an accident of register allocation in the Go loop, not part
// of the contract (the result is a NaN either way).
func withoutNaN(row []float32) []float32 {
	out := slices.Clone(row)
	for i, v := range out {
		if v != v {
			out[i] = 1
		}
	}
	return out
}

func requireSameF32(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d (row starts at %d): %s %v (0x%08x), purego %v (0x%08x)", what, i, sweepGuard,
				vectorKernel(), got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestRowMaxAbsFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sweepRows(rowLanes, func(n, off int) {
		for rep := 0; rep < 4; rep++ {
			_, row := guarded(saltedRow(rng, n), off, float32(math.Inf(1)))
			var got, want float32
			withKernel(t, "purego", func() { want = MaxAbsFinite(row) })
			withKernel(t, vectorKernel(), func() { got = MaxAbsFinite(row) })
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("n=%d off=%d: %v, purego %v, over %v", n, off, got, want, row)
			}
			if naive := maxAbsNaive(row); got != naive {
				t.Fatalf("n=%d off=%d: %v, math.Abs scan %v", n, off, got, naive)
			}
		}
	})
	// Past the two-accumulator loop's stride, and a maximum in every lane.
	for _, n := range []int{31, 32, 33, 100, 1000} {
		for at := 0; at < n; at += max(1, n/37) {
			row := make([]float32, n)
			row[at] = -7
			withKernel(t, vectorKernel(), func() {
				if got := MaxAbsFinite(row); got != 7 {
					t.Fatalf("n=%d: maximum at %d not found: %v", n, at, got)
				}
			})
		}
	}
}

func maxAbsNaive(row []float32) float32 {
	var m float64
	for _, v := range row {
		if a := math.Abs(float64(v)); a <= math.MaxFloat32 && a > m {
			m = a
		}
	}
	return float32(m)
}

// tailCase is one setting of the row tail.
type tailCase struct {
	mode                int
	g, mean, inv, bt, c float32
}

func (c tailCase) String() string {
	return fmt.Sprintf("mode=%d bn=(%v %v %v %v) cap=%v", c.mode, c.g, c.mean, c.inv, c.bt, c.c)
}

// tailCases is batch norm and the clamp in every combination, with Cap ≤ 0
// (unbounded), 6, tiny and huge, and statistics that are ordinary, zero and
// negative.
func tailCases() []tailCase {
	var cases []tailCase
	for _, mode := range []int{tailBN, tailReLU, tailBN | tailReLU} {
		for _, cap := range []float32{0, -1, 6, 1e-30, math.MaxFloat32, float32(math.Inf(1))} {
			for _, bn := range [][4]float32{{1.25, 0.3, 0.7, -0.1}, {-2, -1, 3, 0}, {0, 0, 0, 0}, {1, 0, 1, float32(math.Copysign(0, -1))}} {
				cases = append(cases, tailCase{mode, bn[0], bn[1], bn[2], bn[3], cap})
			}
		}
	}
	return cases
}

func TestRowTail(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range tailCases() {
		sweepRows(rowLanes, func(n, off int) {
			src := saltedRow(rng, n)
			run := func(kernel string, inPlace bool) []float32 {
				buf, row := guarded(src, off, float32(-12345.678))
				in := row
				if !inPlace {
					in = slices.Clone(src)
				}
				withKernel(t, kernel, func() { rowTail(row, in, c.mode, c.g, c.mean, c.inv, c.bt, c.c) })
				return buf
			}
			for _, inPlace := range []bool{true, false} {
				requireSameF32(t, fmt.Sprintf("%v n=%d off=%d inPlace=%v", c, n, off, inPlace),
					run(vectorKernel(), inPlace), run("purego", inPlace))
			}
		})
	}
}

// TestRowTailIsTheScalarFunctions ties the row forms to the per-element
// functions the layers' own passes are defined by.
func TestRowTailIsTheScalarFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := saltedRow(rng, 67)
	bn, relu := make([]float32, len(src)), make([]float32, len(src))
	withKernel(t, vectorKernel(), func() {
		BNEvalRow(bn, src, 1.5, 0.25, 0.8, -0.3)
		ReLUClampRow(relu, src, 6)
	})
	for i, v := range src {
		if want := BNEval(v, 1.5, 0.25, 0.8, -0.3); math.Float32bits(bn[i]) != math.Float32bits(want) {
			t.Fatalf("BNEvalRow[%d](%v) = %v, BNEval %v", i, v, bn[i], want)
		}
		if want := ReLUClamp(v, 6); math.Float32bits(relu[i]) != math.Float32bits(want) {
			t.Fatalf("ReLUClampRow[%d](%v) = %v (0x%08x), ReLUClamp %v (0x%08x)", i, v, relu[i], math.Float32bits(relu[i]), want, math.Float32bits(want))
		}
	}
}

func TestRowAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, a := range []float32{1.5, -0.25, 0, float32(math.Copysign(0, -1)), math.MaxFloat32, 1e-40} {
		sweepRows(rowLanes, func(n, off int) {
			c0, b := saltedRow(rng, n), saltedRow(rng, n)
			if (n+off)%2 == 0 {
				c0 = withoutNaN(c0)
			} else {
				b = withoutNaN(b)
			}
			run := func(kernel string) []float32 {
				buf, row := guarded(c0, off, float32(-12345.678))
				_, brow := guarded(b, (off+3)%rowLanes, float32(7))
				withKernel(t, kernel, func() { axpyRow(row, brow, a) })
				return buf
			}
			requireSameF32(t, fmt.Sprintf("a=%v n=%d off=%d", a, n, off), run(vectorKernel()), run("purego"))
		})
	}
}

// TestRowStoreTileFloat sweeps the float GEMM's tile store: every tile size
// up to the whole 4×8 one the vector kernel takes, a row stride that leaves
// sentinels between the rows, overwriting with and without a bias and
// accumulating, the tail in every combination, applied or not.
func TestRowStoreTileFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const rowsC, i0 = 7, 2
	for _, c := range tailCases() {
		for _, ldc := range []int{gemmNR, gemmNR + 1, 19} {
			for mr := 1; mr <= gemmMR; mr++ {
				for nr := 1; nr <= gemmNR; nr++ {
					for flags := 0; flags < 8; flags++ {
						overwrite, finish, bias := flags&1 != 0, flags&2 != 0, flags&4 != 0
						j0 := rng.Intn(ldc - nr + 1)
						ep := RowEpilogue{ReLU: c.mode&tailReLU != 0, Cap: c.c}
						if c.mode&tailBN != 0 {
							ep.Gamma, ep.Mean, ep.Inv, ep.Beta = saltedFinite(rng, rowsC, c.g), saltedFinite(rng, rowsC, c.mean), saltedFinite(rng, rowsC, c.inv), saltedFinite(rng, rowsC, c.bt)
						}
						if bias {
							ep.Bias = saltedFinite(rng, rowsC, -0.5)
						}
						var tile [gemmMR * gemmNR]float32
						copy(tile[:], saltedRow(rng, len(tile)))
						c0 := saltedRow(rng, rowsC*ldc) // an overwriting store must not read it
						if !overwrite {
							c0 = withoutNaN(c0)
						}
						run := func(kernel string) []float32 {
							buf, cm := guarded(c0, 0, float32(-12345.678))
							g := gemmCall{c: cm, ldc: ldc, row: ep}
							withKernel(t, kernel, func() { g.storeTile(&tile, i0, j0, mr, nr, overwrite, finish) })
							return buf
						}
						requireSameF32(t, fmt.Sprintf("%v ldc=%d tile %dx%d at (%d,%d) overwrite=%v finish=%v bias=%v", c, ldc, mr, nr, i0, j0, overwrite, finish, bias),
							run(vectorKernel()), run("purego"))
					}
				}
			}
		}
	}
}

// saltedFinite draws n finite per-row operands around v, zeros of both signs
// among them.
func saltedFinite(rng *rand.Rand, n int, v float32) []float32 {
	s := make([]float32, n)
	for i := range s {
		switch rng.Intn(6) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = float32(math.Copysign(0, -1))
		default:
			s[i] = v + float32(rng.NormFloat64())
		}
	}
	return s
}

// requantCase is one setting of the requantise.
type requantCase struct {
	bias   int32
	mult   float32
	lo, hi int8
}

// requantCases: multipliers from 2⁻³⁰ to 2⁸ — powers of two, which make every
// odd accumulator a tie somewhere, and others — zero, negative, huge and
// non-finite ones; the bounds of a plain layer, of a clamped one, and equal.
func requantCases() []requantCase {
	var cases []requantCase
	mults := []float32{0, 0.5, 0.25, 1, 1.5, -0.5, 0.0123, 3.1e-5, 1e30, -1e30,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for e := -30; e <= 8; e += 2 {
		mults = append(mults, float32(math.Ldexp(1, e)), float32(math.Ldexp(1.37, e)))
	}
	for _, mult := range mults {
		for _, b := range [][2]int8{{-127, 127}, {0, 93}, {5, 5}, {-128, 127}, {0, 0}} {
			for _, bias := range []int32{0, 1, -1000, math.MaxInt32} {
				cases = append(cases, requantCase{bias, mult, b[0], b[1]})
			}
		}
	}
	return cases
}

// saltedAcc draws n accumulators: the int32 extremes, small values whose
// halves are ties, and ordinary ones.
func saltedAcc(rng *rand.Rand, n int) []int32 {
	acc := make([]int32, n)
	for i := range acc {
		switch rng.Intn(6) {
		case 0:
			acc[i] = []int32{math.MinInt32, math.MaxInt32, math.MinInt32 + 1, 0, 1, -1}[rng.Intn(6)]
		case 1:
			acc[i] = int32(rng.Intn(511) - 255)
		default:
			acc[i] = int32(rng.Uint32()) >> uint(rng.Intn(24))
		}
	}
	return acc
}

func TestRowRequantize(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, c := range requantCases() {
		sweepRows(rowLanes, func(n, off int) {
			acc := saltedAcc(rng, n)
			_, arow := guarded(acc, (off+5)%rowLanes, int32(0x5ea7beef))
			run := func(kernel string) []int8 {
				buf, row := guarded(make([]int8, n), off, int8(-128))
				withKernel(t, kernel, func() { RequantizeRow(row, arow, c.bias, c.mult, c.lo, c.hi) })
				return buf
			}
			got, want := run(vectorKernel()), run("purego")
			if !slices.Equal(got, want) {
				t.Fatalf("%+v n=%d off=%d acc=%v:\n%s %v\npurego %v", c, n, off, acc, vectorKernel(), got, want)
			}
		})
	}
}

func TestRowRescaleCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range requantCases() {
		if c.bias != 0 {
			continue
		}
		sweepRows(rowLanes, func(n, off int) {
			src := randI8(rng, n)
			_, srow := guarded(src, (off+1)%rowLanes, int8(77))
			run := func(kernel string, inPlace bool) []int8 {
				buf, row := guarded(src, off, int8(-128))
				in := srow
				if inPlace {
					in = row
				}
				withKernel(t, kernel, func() { RescaleCodes(row, in, c.mult, c.lo, c.hi) })
				return buf
			}
			for _, inPlace := range []bool{false, true} {
				if got, want := run(vectorKernel(), inPlace), run("purego", inPlace); !slices.Equal(got, want) {
					t.Fatalf("%+v n=%d off=%d src=%v:\n%s %v\npurego %v", c, n, off, src, vectorKernel(), got, want)
				}
			}
		})
	}
}

// TestRowStoreTileInt8 sweeps the int8 GEMM's requantising tile store as
// TestRowStoreTileFloat does the float one.
func TestRowStoreTileInt8(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const rowsC, i0 = 7, 3
	for ci, c := range requantCases() {
		for _, n := range []int{i8NR, i8NR + 1, 21} {
			for mr := 1; mr <= i8MR; mr++ {
				for nr := 1; nr <= i8NR; nr += 1 + ci%3 {
					j0 := rng.Intn(n - nr + 1)
					g := i8gemmCall{n: n, ldc: n, mode: i8ModeRequant, mult: make([]float32, rowsC), lo: c.lo, hi: c.hi}
					for i := range g.mult {
						g.mult[i] = c.mult * float32(1+i)
					}
					if c.bias != 0 {
						g.bias = saltedAcc(rng, rowsC)
					}
					var tile [i8MR * i8NR]int32
					copy(tile[:], saltedAcc(rng, len(tile)))
					run := func(kernel string) []int8 {
						buf, cm := guarded(make([]int8, rowsC*n), 0, int8(-128))
						g.c8 = cm
						withKernel(t, kernel, func() { g.storeTile(&tile, i0, j0, mr, nr) })
						return buf
					}
					if got, want := run(vectorKernel()), run("purego"); !slices.Equal(got, want) {
						t.Fatalf("%+v n=%d tile %dx%d at (%d,%d) %v:\n%s %v\npurego %v", c, n, mr, nr, i0, j0, tile, vectorKernel(), got, want)
					}
				}
			}
		}
	}
}

// f32sOf reads little-endian float32s from fuzz bytes.
func f32sOf(data []byte) []float32 {
	row := make([]float32, len(data)/4)
	for i := range row {
		row[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return row
}

func bytesOfF32(row []float32) []byte {
	data := make([]byte, 4*len(row))
	for i, v := range row {
		binary.LittleEndian.PutUint32(data[4*i:], math.Float32bits(v))
	}
	return data
}

// FuzzRowTail holds the row tail under the vector kernel to the Go loop on
// arbitrary bit patterns. Statistics that are NaN are left out (withoutNaN
// says why).
func FuzzRowTail(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for i, c := range tailCases() {
		f.Add(bytesOfF32(saltedRow(rng, 3+i%23)), uint8(c.mode), uint8(i), c.g, c.mean, c.inv, c.bt, c.c)
	}
	f.Fuzz(func(t *testing.T, data []byte, mode, off uint8, g, mean, inv, bt, cap float32) {
		for _, v := range []float32{g, mean, inv, bt} {
			if v != v {
				t.Skip()
			}
		}
		m := int(mode)%3 + 1
		src := f32sOf(data)
		run := func(kernel string) []float32 {
			buf, row := guarded(src, int(off)%rowLanes, float32(-12345.678))
			withKernel(t, kernel, func() { rowTail(row, row, m, g, mean, inv, bt, cap) })
			return buf
		}
		requireSameF32(t, fmt.Sprintf("mode=%d bn=(%v %v %v %v) cap=%v", m, g, mean, inv, bt, cap), run(vectorKernel()), run("purego"))
	})
}

// FuzzRequantRow holds the requantise row under the vector kernel to
// RequantizeRNE's loop on arbitrary accumulators, multipliers and bounds.
func FuzzRequantRow(f *testing.F) {
	rng := rand.New(rand.NewSource(10))
	for i, c := range requantCases() {
		if i%7 != 0 {
			continue
		}
		acc := saltedAcc(rng, 3+i%19)
		data := make([]byte, 4*len(acc))
		for k, a := range acc {
			binary.LittleEndian.PutUint32(data[4*k:], uint32(a))
		}
		f.Add(data, uint8(i), c.bias, c.mult, c.lo, c.hi)
	}
	f.Fuzz(func(t *testing.T, data []byte, off uint8, bias int32, mult float32, lo, hi int8) {
		if lo > hi {
			t.Skip() // not a range: RequantizeRNE's callers clamp to lo ≤ hi
		}
		acc := make([]int32, len(data)/4)
		for i := range acc {
			acc[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		run := func(kernel string) []int8 {
			buf, row := guarded(make([]int8, len(acc)), int(off)%rowLanes, int8(-128))
			withKernel(t, kernel, func() { RequantizeRow(row, acc, bias, mult, lo, hi) })
			return buf
		}
		if got, want := run(vectorKernel()), run("purego"); !slices.Equal(got, want) {
			t.Fatalf("bias=%d mult=%v [%d,%d] acc=%v:\n%s %v\npurego %v", bias, mult, lo, hi, acc, vectorKernel(), got, want)
		}
	})
}
