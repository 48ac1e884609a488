package quant_test

import (
	"fmt"

	"skynet/internal/quant"
)

func ExampleCalibrate() {
	q := quant.Calibrate(8, []float32{-2, 0.5, 1.9})
	// The calibrated scale covers the max-magnitude value with 127 codes.
	v := []float32{0.5}
	q.Apply(v)
	fmt.Printf("%.4f %.4f\n", q.Scale, v[0])
	// Output: 0.0157 0.5039
}

func ExampleScheme_String() {
	fmt.Println(quant.Table7Schemes[0], quant.Table7Schemes[1])
	// Output: Float32 FM9/W11
}
