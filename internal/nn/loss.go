package nn

import (
	"math"

	"skynet/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean softmax cross-entropy loss of
// logits [N,K] against integer labels, and the gradient with respect to
// the logits. Used by the classification baselines (AlexNet sketch of
// Figure 2(a)).
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (loss float32, grad *tensor.Tensor) {
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic("nn: SoftmaxCrossEntropy label count mismatch")
	}
	grad = tensor.New(n, k)
	var total float64
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		logSum := math.Log(sum)
		lbl := labels[i]
		total += logSum - float64(row[lbl]-maxv)
		gRow := grad.Data[i*k : (i+1)*k]
		for j, v := range row {
			p := float32(math.Exp(float64(v-maxv)) / sum)
			gRow[j] = p / float32(n)
		}
		gRow[lbl] -= 1 / float32(n)
	}
	return float32(total / float64(n)), grad
}

// Accuracy returns the fraction of rows of logits [N,K] whose argmax
// equals the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n, k := logits.Dim(0), logits.Dim(1)
	correct := 0
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// Sigmoid returns 1/(1+e^-x) for a scalar; shared by the detection and
// tracking heads.
//
//skynet:hotpath
func Sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}
