package quant

import (
	"math"
	"math/rand"
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
	if math.IsNaN(float64(q.Quantize(1.5))) {
		t.Fatal("Quantize produced NaN after calibrating on data containing NaN")
	}
}

// TestObserverPercentile checks the percentile calibrator clips outliers
// while max-abs does not.
func TestObserverPercentile(t *testing.T) {
	data := make([]float32, 10000)
	for i := range data {
		data[i] = 1
	}
	data[17] = 1000 // lone outlier
	om := newObserver(CalibMaxAbs)
	om.observe(data)
	if got := om.clip(99); got != 1000 {
		t.Fatalf("max-abs clip = %v, want 1000", got)
	}
	op := newObserver(CalibPercentile)
	op.observe(data)
	if got := op.clip(99); got != 1 {
		t.Fatalf("99th-percentile clip = %v, want 1 (outlier excluded)", got)
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
		o := newObserver(CalibMaxAbs)
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
		if got := math.Float32bits(o.clip(99)); got != want {
			t.Fatalf("max-abs from concurrent pieces %#08x, of the whole map %#08x", got, want)
		}
	}
}

// TestObserverDecimation checks the bounded-memory sketch keeps working
// past the sample cap.
func TestObserverDecimation(t *testing.T) {
	o := newObserver(CalibPercentile)
	chunk := make([]float32, 1<<14)
	for i := range chunk {
		chunk[i] = float32(i%100) / 100
	}
	for r := 0; r < 10; r++ {
		o.observe(chunk)
	}
	if len(o.samples) >= calibMaxSamples {
		t.Fatalf("sample sketch grew to %d, cap is %d", len(o.samples), calibMaxSamples)
	}
	c := o.clip(99.9)
	if !(c > 0.9) || c > 1 {
		t.Fatalf("clip after decimation = %v, want ~0.99", c)
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

// TestCalibrateActivations checks per-node scale collection over a real
// graph and the error on an empty calibration set.
func TestCalibrateActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	if _, err := CalibrateActivations(g, nil, CalibConfig{}, nil); err == nil {
		t.Fatal("empty calibration set must error")
	}
	batch := tensor.New(2, 3, 16, 16)
	for i := range batch.Data {
		batch.Data[i] = rng.Float32()
	}
	scales, err := CalibrateActivations(g, []*tensor.Tensor{batch}, CalibConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(scales.Node) != len(g.Nodes) {
		t.Fatalf("got %d node scales for %d nodes", len(scales.Node), len(g.Nodes))
	}
	if !(scales.Input > 0) {
		t.Fatalf("input scale = %v, want > 0", scales.Input)
	}
	for i, s := range scales.Node {
		if !(s > 0) || math.IsInf(float64(s), 0) {
			t.Fatalf("node %d (%s): scale = %v, want positive finite", i, g.Nodes[i].Layer.Name(), s)
		}
	}
	// The hook must be restored.
	if g.FMHook != nil {
		t.Fatal("CalibrateActivations left its FMHook installed")
	}
}

// TestCalibrateActivationsPreservesHook checks a pre-installed hook is
// chained and restored.
func TestCalibrateActivationsPreservesHook(t *testing.T) {
	g := nn.Sequential(nn.NewReLU())
	called := 0
	prev := func(i int, x *tensor.Tensor) { called++ }
	g.FMHook = prev
	batch := tensor.New(1, 1, 2, 2)
	batch.Data[0] = 1
	if _, err := CalibrateActivations(g, []*tensor.Tensor{batch}, CalibConfig{}, nil); err != nil {
		t.Fatal(err)
	}
	if called == 0 {
		t.Fatal("previous FMHook was not chained during calibration")
	}
	if g.FMHook == nil {
		t.Fatal("previous FMHook was not restored")
	}
}
