package main

// Order statistics and the output digest shared by every workload, the
// compare mode and the tests.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"skynet/internal/detect"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the spread
// the compare mode prints is the one the acceptance driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spreadShare is the interquartile distance as a share of the median: the
// run-to-run spread every bound in BENCHMARK.json is judged against.
func spreadShare(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med <= 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest accumulates a workload's outputs into one 64-bit FNV-1a value,
// so a reviewer sees at a glance whether a change altered arithmetic.
type digest struct{ sum uint64 }

func newDigest() *digest { return &digest{sum: 14695981039346656037} }

func (d *digest) bytes(p []byte) {
	for _, b := range p {
		d.sum = (d.sum ^ uint64(b)) * 1099511628211
	}
}

func (d *digest) floats(vs ...float64) {
	for _, v := range vs {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			d.sum = (d.sum ^ (bits >> s & 0xff)) * 1099511628211
		}
	}
}

func (d *digest) box(b detect.Box, conf float64) { d.floats(b.CX, b.CY, b.W, b.H, conf) }

func (d *digest) String() string { return fmt.Sprintf("%016x", d.sum) }

// detection is one decoded output, compared bitwise: both engines are
// batch-invariant, so the executor, the server and a direct forward must
// agree to the last bit.
type detection struct {
	box  detect.Box
	conf float64
}

// same reports bitwise equality. Comparing the IEEE bit patterns (not the
// float values) is the point: a one-ulp drift is a changed result.
func (a detection) same(b detection) bool {
	return sameBox(a.box, b.box) && math.Float64bits(a.conf) == math.Float64bits(b.conf)
}

func sameBox(a, b detect.Box) bool {
	return math.Float64bits(a.CX) == math.Float64bits(b.CX) &&
		math.Float64bits(a.CY) == math.Float64bits(b.CY) &&
		math.Float64bits(a.W) == math.Float64bits(b.W) &&
		math.Float64bits(a.H) == math.Float64bits(b.H)
}
