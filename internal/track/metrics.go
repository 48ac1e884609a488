package track

// AO returns the GOT-10k average-overlap metric: the mean IoU between
// predicted and ground-truth boxes over all frames.
func AO(ious []float64) float64 {
	if len(ious) == 0 {
		return 0
	}
	var s float64
	for _, v := range ious {
		s += v
	}
	return s / float64(len(ious))
}

// SR returns the GOT-10k success rate: the fraction of frames whose IoU
// exceeds the threshold (the benchmark reports SR@0.50 and SR@0.75).
func SR(ious []float64, threshold float64) float64 {
	if len(ious) == 0 {
		return 0
	}
	n := 0
	for _, v := range ious {
		if v > threshold {
			n++
		}
	}
	return float64(n) / float64(len(ious))
}
