package quant

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// TestCalibrateDegenerateInputs pins the hardened edge-case contract: no
// zero, NaN or Inf scale may ever escape into a kernel.
func TestCalibrateDegenerateInputs(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	cases := []struct {
		name string
		data []float32
	}{
		{"empty", nil},
		{"all-zero", []float32{0, 0, 0}},
		{"all-nan", []float32{nan, nan}},
		{"all-inf", []float32{inf, float32(math.Inf(-1))}},
		{"nan-and-inf", []float32{nan, inf}},
	}
	for _, c := range cases {
		q := Calibrate(8, c.data)
		if !(q.Scale > 0) || math.IsInf(float64(q.Scale), 0) {
			t.Errorf("%s: Scale = %v, want a positive finite scale", c.name, q.Scale)
		}
		if got := q.Scale; got != 1 {
			t.Errorf("%s: degenerate input should calibrate to Scale 1, got %v", c.name, got)
		}
	}
}

// TestCalibrateSkipsNonFinite checks that isolated NaN/Inf samples do not
// poison an otherwise healthy calibration.
func TestCalibrateSkipsNonFinite(t *testing.T) {
	data := []float32{-2, 1, float32(math.NaN()), 0.5, float32(math.Inf(1)), -0.25}
	q := Calibrate(8, data)
	want := Calibrate(8, []float32{-2, 1, 0.5, -0.25})
	if q.Scale != want.Scale {
		t.Fatalf("Scale with non-finite samples = %v, want %v (from finite values only)", q.Scale, want.Scale)
	}
	if math.IsNaN(float64(quantizeOne(q, 1.5))) {
		t.Fatal("Apply produced NaN after calibrating on data containing NaN")
	}
}

// TestCalibrationMaxAbsFromConcurrentPieces: the max-abs reducer is fed as a
// split Bundle step feeds it — a map in pieces, from several goroutines at
// once, in no set order — and holds bit for bit the whole map's max-abs,
// NaN, -Inf and -0 among the values.
func TestCalibrationMaxAbsFromConcurrentPieces(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	data := make([]float32, 64*64)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	data[7], data[99], data[1000] = float32(math.NaN()), float32(math.Inf(-1)), float32(math.Copysign(0, -1))
	want := math.Float32bits(tensor.MaxAbsFinite(data))
	for rep := 0; rep < 20; rep++ {
		var o observer
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := w; p < 64; p += 8 {
					o.observe(data[p*64 : (p+1)*64])
				}
			}()
		}
		wg.Wait()
		if got := math.Float32bits(o.clip()); got != want {
			t.Fatalf("max-abs from concurrent pieces %#08x, of the whole map %#08x", got, want)
		}
	}
}

// TestQuantizeWeightsPerChannel checks row-wise scales and degenerate rows.
func TestQuantizeWeightsPerChannel(t *testing.T) {
	w := []float32{
		1, -2, 0.5, // row 0: maxabs 2
		0, 0, 0, // row 1: degenerate
		127, 127, -127, // row 2: maxabs 127 -> scale 1
	}
	codes, scales := QuantizeWeightsPerChannel(w, 3, 3)
	if scales[0] != 2.0/127 {
		t.Errorf("row 0 scale = %v, want %v", scales[0], 2.0/127)
	}
	if scales[1] != 1 {
		t.Errorf("all-zero row scale = %v, want 1", scales[1])
	}
	for i := 3; i < 6; i++ {
		if codes[i] != 0 {
			t.Errorf("all-zero row code[%d] = %d, want 0", i, codes[i])
		}
	}
	if codes[6] != 127 || codes[8] != -127 {
		t.Errorf("row 2 codes = %v, want ±127 at ends", codes[6:9])
	}
	// Round trip within half a step per element.
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			got := float32(codes[r*3+c]) * scales[r]
			if d := math.Abs(float64(got - w[r*3+c])); d > float64(scales[r])/2+1e-6 {
				t.Errorf("w[%d,%d] round trip error %v exceeds half a step %v", r, c, d, scales[r]/2)
			}
		}
	}
}

// roundCodeRef is the code of a quotient the long way — math.RoundToEven,
// then the clamp to ±127, NaN to 0 — the form tensor.CodeRNE replaces.
func roundCodeRef(q float64) int8 {
	if math.IsNaN(q) {
		return 0
	}
	return int8(min(max(math.RoundToEven(q), -127), 127))
}

// TestQuantizeWeightsMatchesRoundToEven: every weight code is the long
// form's of the same float64 quotient, on ties of the grid (v = (k+½)·s)
// and next to them, ±Inf, NaN, all-zero rows, subnormal scales and
// |v/s| > 127 (a row's finite maximum sets the scale; an infinite value
// past it saturates).
func TestQuantizeWeightsMatchesRoundToEven(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	const cols = 67
	var w []float32
	for _, maxAbs := range []float32{1, 0.03, 127, 1e-40, 3e-43, math.MaxFloat32, 0} {
		s := maxAbs / 127
		row := make([]float32, cols)
		for c := range row {
			switch c % 6 {
			case 0: // a tie, or the float32 next to one
				row[c] = (float32(rng.Intn(255)-127) + 0.5) * s * []float32{1, 0.9999999, 1.0000001}[rng.Intn(3)]
			case 1:
				row[c] = float32(rng.NormFloat64()) * 40 * s
			case 2:
				row[c] = []float32{inf, -inf, nan, 0, float32(math.Copysign(0, -1)), maxAbs, -maxAbs}[rng.Intn(7)]
			default:
				row[c] = (rng.Float32()*2 - 1) * maxAbs
			}
		}
		row[cols-1] = maxAbs
		w = append(w, row...)
	}
	w = append(w, make([]float32, cols)...) // all zero: scale 1, zero codes
	rows := len(w) / cols
	codes, scales := QuantizeWeightsPerChannel(w, rows, cols)
	for i, v := range w {
		if want := roundCodeRef(float64(v) / float64(scales[i/cols])); codes[i] != want {
			t.Fatalf("row %d (scale %v): code of %v = %d, want %d", i/cols, scales[i/cols], v, codes[i], want)
		}
	}
	// The magic-constant rounding itself, on quotients the rows above only
	// reach by chance: exact ties, both sides of ±127.5, and huge values.
	for _, q := range []float64{0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 126.5, -126.5, 127.4999, 127.5, -127.5, 128, -1e300, 1e300, math.Inf(-1), math.NaN(), 0x1p51 + 1, -0x1p52} {
		if got, want := tensor.CodeRNE(q), roundCodeRef(q); got != want {
			t.Errorf("CodeRNE(%v) = %d, want %d", q, got, want)
		}
	}
}

// TestCalibrateActivations checks per-node clip collection over a real
// graph and the error on an empty calibration set.
func TestCalibrateActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	if _, err := CalibrateActivations(nn.NewPlanCache(g, nil), nil); err == nil {
		t.Fatal("empty calibration set must error")
	}
	batch := tensor.New(2, 3, 16, 16)
	for i := range batch.Data {
		batch.Data[i] = rng.Float32()
	}
	clips, err := CalibrateActivations(nn.NewPlanCache(g, nil), []*tensor.Tensor{batch})
	if err != nil {
		t.Fatal(err)
	}
	if len(clips.Node) != len(g.Nodes) {
		t.Fatalf("got %d node clips for %d nodes", len(clips.Node), len(g.Nodes))
	}
	if !(clips.Input > 0) {
		t.Fatalf("input clip = %v, want > 0", clips.Input)
	}
	for i, c := range append(clips.Node, clips.Input) {
		if s := grid(8, c).Scale; !(s > 0) || math.IsInf(float64(s), 0) {
			t.Fatalf("clip %d = %v: scale %v, want positive finite", i, c, s)
		}
	}
}

// TestSkyNetCBitwiseUnderEveryKernel: full-width SkyNet C's float forward,
// the activation clips CalibrateActivations takes from that forward, the
// codes, scales and epilogues Export lowers it to, and that int8 model's
// forwards at batch 1 and 4 are bitwise the same under every kernel the host
// has — purego, avx2 and avx512 (with the avx512vnni int8 tile where the CPU
// has VNNI) — whichever GEMM tiles and row kernels compute them.
func TestSkyNetCBitwiseUnderEveryKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := backbone.SkyNetC(rng, backbone.DefaultConfig())
	h, w := 160, 320
	if testing.Short() {
		h, w = 48, 96
	}
	x, x1, x4 := randBatch(rng, 2, 3, h, w), randBatch(rng, 1, 3, h, w), randBatch(rng, 4, 3, h, w)
	old := tensor.KernelName()
	defer func() {
		if err := tensor.SetKernel(old); err != nil {
			t.Fatalf("restoring kernel %q: %v", old, err)
		}
	}()
	var first string
	var want struct {
		out, q1, q4 []float32
		clips       ActivationClips
		qm          *QuantizedModel
	}
	for _, name := range []string{"purego", "avx2", "avx512"} {
		if tensor.SetKernel(name) != nil {
			continue // not on this CPU or build
		}
		out := g.Forward(x, false).Data
		clips, err := CalibrateActivations(nn.NewPlanCache(g, nil), []*tensor.Tensor{x})
		if err != nil {
			t.Fatal(err)
		}
		qm, err := Export(g, []*tensor.Tensor{x}, ExportConfig{})
		if err != nil {
			t.Fatal(err)
		}
		q1, q4 := qm.Forward(x1, false).Data, qm.Forward(x4, false).Data
		if first == "" {
			first = name
			want.out, want.q1, want.q4, want.clips, want.qm = out, q1, q4, clips, qm
			continue
		}
		kernels := name + "/" + tensor.Int8KernelName()
		if !sameBits(out, want.out) {
			t.Errorf("forward under %s differs from %s", kernels, first)
		}
		if !sameBits([]float32{clips.Input}, []float32{want.clips.Input}) || !sameBits(clips.Node, want.clips.Node) {
			t.Errorf("clips under %s differ from %s: %v vs %v", kernels, first, clips, want.clips)
		}
		if !reflect.DeepEqual(qm.units, want.qm.units) || !reflect.DeepEqual(qm.vals, want.qm.vals) {
			t.Errorf("Export under %s lowers to other codes, scales or epilogues than under %s", kernels, first)
		}
		if !sameBits(q1, want.q1) || !sameBits(q4, want.q4) {
			t.Errorf("int8 forward under %s differs from %s (batch 1: %v, batch 4: %v)", kernels, first, sameBits(q1, want.q1), sameBits(q4, want.q4))
		}
	}
}

// TestActivationScalesPinned pins every int8 activation scale Export takes
// from CalibrateActivations' clips, bit for bit, for SkyNet A/B/C (width 0.25
// over two sample shapes, and SkyNet C at width 1 on 160×320 frames, whose
// Concat is laid out beside Bundles cut into several bands) and mixedGraph:
// the laid Concat's max-abs, taken from its inputs' instead of scanned, reads
// what the scan read.
func TestActivationScalesPinned(t *testing.T) {
	digest := func(c ActivationClips) string {
		h := fnv.New64a()
		for _, v := range append([]float32{c.Input}, c.Node...) {
			binary.Write(h, binary.LittleEndian, math.Float32bits(grid(8, v).Scale))
		}
		return fmt.Sprintf("%016x", h.Sum64())
	}
	check := func(name string, g *nn.Graph, batches []*tensor.Tensor, want string) {
		t.Helper()
		clips, err := CalibrateActivations(nn.NewPlanCache(g, nil), batches)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(clips); got != want {
			t.Errorf("%s: scales hash to %s, want %s", name, got, want)
		}
	}
	for _, c := range []struct {
		v    backbone.SkyNetVariant
		want string
	}{{backbone.VariantA, "e45672bb44c484a1"}, {backbone.VariantB, "0d6b37f66a9087e5"}, {backbone.VariantC, "6d67007cad5ec5ce"}} {
		rng := rand.New(rand.NewSource(23))
		g := backbone.SkyNet(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true}, c.v)
		settle(g, rng)
		check(fmt.Sprintf("SkyNet%v", c.v), g, []*tensor.Tensor{randBatch(rng, 3, 3, 16, 32), randBatch(rng, 2, 3, 18, 32)}, c.want)
	}
	rng := rand.New(rand.NewSource(24))
	check("mixedGraph", mixedGraph(rng), []*tensor.Tensor{randBatch(rng, 4, 3, 22, 30)}, "da16c4169da58c43")
	if testing.Short() {
		return
	}
	rng = rand.New(rand.NewSource(24))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 1, InC: 3, HeadChannels: 10, ReLU6: true})
	settle(g, rng)
	check("SkyNetC/width1/160x320", g, []*tensor.Tensor{randBatch(rng, 1, 3, 160, 320), randBatch(rng, 2, 3, 160, 320)}, "7ad6b2c21e62de3d")
}
