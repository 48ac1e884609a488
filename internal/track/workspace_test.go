package track

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// refFeatures is a crop's features as the allocating forms compute them:
// Graph.Forward, then the adjust layer's own walk.
func refFeatures(t *Tracker, crop *tensor.Tensor) *tensor.Tensor {
	f := t.Backbone.Forward(crop.Reshape(1, crop.Dim(0), crop.Dim(1), crop.Dim(2)), false)
	f = t.Adjust.Forward([]*tensor.Tensor{f}, false)
	return f.Reshape(f.Dim(1), f.Dim(2), f.Dim(3))
}

// refStep is the step as the allocating forms compute it — a fresh crop,
// refFeatures, DWXCorrE's response, the heads' own Conv2D.Forward read
// through At — for the workspace step to be held to, bit for bit.
func refStep(t *Tracker, zf, frame *tensor.Tensor, box detect.Box, mask bool) (detect.Box, *tensor.Tensor) {
	crop, side := t.SearchCrop(frame, box, box.CX, box.CY)
	resp, err := DWXCorrE(zf, refFeatures(t, crop))
	if err != nil {
		panic(err)
	}
	c, r := resp.Dim(0), resp.Dim(1)
	resp4 := resp.Reshape(1, c, r, r)
	cls := t.Cls.Forward([]*tensor.Tensor{resp4}, false)
	best, py, px := float32(math.Inf(-1)), 0, 0
	for y := 0; y < r; y++ {
		for x := 0; x < r; x++ {
			if v := cls.At(0, 0, y, x); v > best {
				best, py, px = v, y, x
			}
		}
	}
	var m *tensor.Tensor
	if mask {
		masks := t.Mask.Forward([]*tensor.Tensor{resp4}, false)
		m = tensor.New(1, t.Cfg.MaskSize, t.Cfg.MaskSize)
		for k := range m.Data {
			m.Data[k] = nn.Sigmoid(masks.At(0, k, py, px))
		}
	}
	reg := t.Reg.Forward([]*tensor.Tensor{resp4}, false)
	dx, dy := clampF(reg.At(0, 0, py, px), -1, 1), clampF(reg.At(0, 1, py, px), -1, 1)
	tw, th := clampF(reg.At(0, 2, py, px), -1, 1), clampF(reg.At(0, 3, py, px), -1, 1)
	imgH, imgW := frame.Dim(1), frame.Dim(2)
	scale := side / float64(t.Cfg.SearchSize)
	offX := (float64(px) + float64(dx) - float64(r-1)/2) * float64(t.Cfg.Stride) * scale
	offY := (float64(py) + float64(dy) - float64(r-1)/2) * float64(t.Cfg.Stride) * scale
	nb := box
	nb.CX = clamp01(box.CX + offX/float64(imgW))
	nb.CY = clamp01(box.CY + offY/float64(imgH))
	wNew := nominalFrac * math.Exp(float64(tw)) * side / float64(imgW)
	hNew := nominalFrac * math.Exp(float64(th)) * side / float64(imgH)
	const damp = 0.3
	nb.W = clampSize((1-damp)*box.W + damp*wNew)
	nb.H = clampSize((1-damp)*box.H + damp*hNew)
	return nb.Clip(), m
}

// geometryTracker is tinyTracker at the given exemplar/search crop sides.
func geometryTracker(withMask bool, seed int64, exemplar, search int) *Tracker {
	rng := rand.New(rand.NewSource(seed))
	bb := backbone.SkyNetA(rng, backbone.Config{Width: 0.125, InC: 3, HeadChannels: 0, ReLU6: true})
	cfg := DefaultConfig()
	cfg.ExemplarSize, cfg.SearchSize, cfg.WithMask, cfg.Seed = exemplar, search, withMask, seed
	return New(bb, 64, cfg)
}

func sameBox(a, b detect.Box) bool {
	for _, p := range [...][2]float64{{a.CX, b.CX}, {a.CY, b.CY}, {a.W, b.W}, {a.H, b.H}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}

func requireSameTensor(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, v := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got.Data[i], v)
		}
	}
}

// TestTrackStepSteadyStateAllocs is the workspace's contract: once a tracker
// has stepped at a geometry, StepBoxE allocates nothing and
// ExemplarFeaturesFor only the template it returns — at 32/64 and 64/128
// crops, and when consecutive frames differ in size (the crops do not).
func TestTrackStepSteadyStateAllocs(t *testing.T) {
	for _, g := range []struct{ exemplar, search int }{{32, 64}, {64, 128}} {
		t.Run(fmt.Sprintf("%d-%d", g.exemplar, g.search), func(t *testing.T) {
			tr := geometryTracker(false, 3, g.exemplar, g.search)
			seq := testSequences(1)[0]
			other := dataset.NewGenerator(dataset.Config{W: 160, H: 120, Clutter: 1, Seed: 9}).Sequence(dataset.SequenceConfig{Length: 2})
			zf, err := tr.ExemplarFeaturesFor(seq.Frames[0], seq.Boxes[0])
			if err != nil {
				t.Fatal(err)
			}
			box := seq.Boxes[0]
			frames := []*tensor.Tensor{seq.Frames[1], other.Frames[1]}
			for _, f := range frames {
				if _, err := tr.StepBoxE(zf, f, box); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			if n := testing.AllocsPerRun(20, func() {
				if _, err := tr.StepBoxE(zf, frames[i%2], box); err != nil {
					t.Fatal(err)
				}
				i++
			}); n != 0 {
				t.Fatalf("StepBoxE on a warm tracker: %v allocations, want 0", n)
			}
			want := testing.AllocsPerRun(20, func() { zf.Clone() })
			if n := testing.AllocsPerRun(20, func() {
				if _, err := tr.ExemplarFeaturesFor(frames[i%2], box); err != nil {
					t.Fatal(err)
				}
				i++
			}); n != want {
				t.Fatalf("ExemplarFeaturesFor on a warm tracker: %v allocations, want the template's %v", n, want)
			}
		})
	}
}

// TestTrackTrajectoriesMatchAllocatingReference: over several sequences,
// with and without the mask head, the workspace step's templates, boxes and
// mask patches are the allocating forms' bit for bit — the reference steps
// from the same boxes, so one differing bit shows at the step it happens.
func TestTrackTrajectoriesMatchAllocatingReference(t *testing.T) {
	for _, withMask := range []bool{false, true} {
		tr := tinyTracker(withMask, 11)
		for si, seq := range testSequences(3) {
			what := fmt.Sprintf("mask %v, sequence %d", withMask, si)
			zf, err := tr.ExemplarFeaturesFor(seq.Frames[0], seq.Boxes[0])
			if err != nil {
				t.Fatal(err)
			}
			requireSameTensor(t, what+", template", zf, refFeatures(tr, tr.ExemplarCrop(seq.Frames[0], seq.Boxes[0])))
			box := seq.Boxes[0]
			for f := 1; f < seq.Len(); f++ {
				got, m, err := tr.StepE(zf, seq.Frames[f], box, withMask)
				if err != nil {
					t.Fatal(err)
				}
				want, wantMask := refStep(tr, zf, seq.Frames[f], box, withMask)
				if !sameBox(got, want) {
					t.Fatalf("%s, frame %d: box %+v, the allocating step's %+v", what, f, got, want)
				}
				if withMask {
					requireSameTensor(t, fmt.Sprintf("%s, frame %d, mask", what, f), m, wantMask)
				}
				box = got
			}
		}
	}
}

// TestTrackNonFiniteFrame: finite pixels large enough to overflow the
// forward come back as errors from both entry points, never as a NaN box,
// mask or template, and the tracker steps normally afterwards.
func TestTrackNonFiniteFrame(t *testing.T) {
	tr := tinyTracker(true, 12)
	seq := testSequences(1)[0]
	huge := seq.Frames[1].Clone()
	huge.Fill(3e38)
	if _, err := tr.ExemplarFeaturesFor(huge, seq.Boxes[0]); err == nil {
		t.Fatal("ExemplarFeaturesFor returned features of an overflowing frame")
	}
	zf := template(t, tr, seq)
	for _, mask := range []bool{false, true} {
		if b, m, err := tr.StepE(zf, huge, seq.Boxes[0], mask); err == nil {
			t.Fatalf("StepE (mask %v) on an overflowing frame returned box %+v, mask %v and no error", mask, b, m)
		}
	}
	got, err := tr.StepBoxE(zf, seq.Frames[1], seq.Boxes[0])
	if want, _ := refStep(tr, zf, seq.Frames[1], seq.Boxes[0], false); err != nil || !sameBox(got, want) {
		t.Fatalf("step after the failures: %+v, %v; want %+v", got, err, want)
	}
}

// TestTrackConcurrentStepsOnOneTracker: goroutines track different sequences
// side by side on one tracker — templates, boxes and mask patches — each step
// on a workspace of its own, and every result is bit for bit what the same
// tracker gives the sequence alone.
func TestTrackConcurrentStepsOnOneTracker(t *testing.T) {
	tr := tinyTracker(true, 14)
	seqs := testSequences(4)
	type result struct {
		boxes []detect.Box
		masks []*tensor.Tensor
	}
	run := func(seq dataset.Sequence) (result, error) {
		var r result
		zf, err := tr.ExemplarFeaturesFor(seq.Frames[0], seq.Boxes[0])
		if err != nil {
			return r, err
		}
		box := seq.Boxes[0]
		for f := 1; f < seq.Len(); f++ {
			b, m, err := tr.StepE(zf, seq.Frames[f], box, f%2 == 0)
			if err != nil {
				return r, err
			}
			r.boxes, r.masks, box = append(r.boxes, b), append(r.masks, m), b
		}
		return r, nil
	}
	want := make([]result, len(seqs))
	for i, seq := range seqs {
		var err error
		if want[i], err = run(seq); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 2
	got := make([][rounds]result, len(seqs))
	errs := make([]error, len(seqs))
	var wg sync.WaitGroup
	for i, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds && errs[i] == nil; r++ {
				got[i][r], errs[i] = run(seq)
			}
		}()
	}
	wg.Wait()
	for i := range seqs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for r := range got[i] {
			for f, b := range got[i][r].boxes {
				what := fmt.Sprintf("sequence %d, round %d, frame %d", i, r, f+1)
				if !sameBox(b, want[i].boxes[f]) {
					t.Fatalf("%s: box %+v, alone %+v", what, b, want[i].boxes[f])
				}
				if m := got[i][r].masks[f]; m != nil {
					requireSameTensor(t, what+", mask", m, want[i].masks[f])
				}
			}
		}
	}
}
