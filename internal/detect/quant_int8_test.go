package detect

import (
	"math"
	"testing"

	"math/rand"

	"skynet/internal/nn"
	"skynet/internal/quant"
	"skynet/internal/tensor"
)

// TestQuantizedDetectionIoU is the end-to-end acceptance gate for the int8
// engine: train a small detector, lower it to int8, and require the
// quantized mean IoU on held-out fixtures to stay within 2 points of the
// float model — the same budget Table 7 grants the FPGA number formats.
func TestQuantizedDetectionIoU(t *testing.T) {
	if testing.Short() {
		t.Skip("detector training skipped in short mode")
	}
	rng := rand.New(rand.NewSource(7))
	head := NewHead(nil)
	g := sequential(
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
	val := makeToySamples(rng, 24, 1, 16, 16)
	TrainDetector(g, head, train, TrainConfig{
		Epochs:    30,
		BatchSize: 8,
		LR:        nn.LRSchedule{Start: 0.01, End: 0.001, Epochs: 30},
	})
	floatIoU := MeanIoU(g, head, val, 8)
	if floatIoU < 0.2 {
		t.Fatalf("float model failed to train (IoU %v); quantization comparison is meaningless", floatIoU)
	}

	// Calibrate on training batches, evaluate on the held-out set.
	var calib []*tensor.Tensor
	for lo := 0; lo+8 <= len(train); lo += 8 {
		x, _ := Batch(train, lo, lo+8)
		calib = append(calib, x)
	}
	qm, err := quant.Export(g, calib, quant.ExportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	int8Units, floatUnits, fused := qm.Stats()
	if floatUnits != 0 {
		t.Errorf("toy detector lowering left %d float units, want 0", floatUnits)
	}
	t.Logf("lowering: %d int8 units, %d fused nodes", int8Units, fused)

	quantIoU := MeanIoU(qm, head, val, 8)
	t.Logf("IoU float %.4f vs int8 %.4f", floatIoU, quantIoU)
	if d := math.Abs(floatIoU - quantIoU); d > 0.02 {
		t.Fatalf("quantized IoU %.4f deviates from float %.4f by %.4f, budget 0.02", quantIoU, floatIoU, d)
	}
}
