package track

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// dot is the inner product of two equally long tensors, in float64.
func dot(a, b *tensor.Tensor) float64 {
	var s float32
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return float64(s)
}

func TestAOEqualsMeanIoU(t *testing.T) {
	ious := []float64{0.2, 0.4, 0.9}
	if got := AO(ious); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("AO = %v, want 0.5", got)
	}
	if AO(nil) != 0 {
		t.Fatal("AO of empty must be 0")
	}
}

func TestSRThresholds(t *testing.T) {
	ious := []float64{0.2, 0.55, 0.8, 0.76}
	if got := SR(ious, 0.50); got != 0.75 {
		t.Fatalf("SR@0.5 = %v, want 0.75", got)
	}
	if got := SR(ious, 0.75); got != 0.5 {
		t.Fatalf("SR@0.75 = %v, want 0.5", got)
	}
}

// Property: SR is monotone non-increasing in the threshold, and SR@0 ≥ AO
// bounds hold trivially.
func TestQuickSRMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ious := make([]float64, 1+rng.Intn(50))
		for i := range ious {
			ious[i] = rng.Float64()
		}
		prev := 1.1
		for _, th := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			s := SR(ious, th)
			if s > prev+1e-12 {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// xcorr is DWXCorrE on operands the test made valid.
func xcorr(t testing.TB, z, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	out, err := DWXCorrE(z, x)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// naive xcorr for validation.
func naiveXCorr(z, x *tensor.Tensor) *tensor.Tensor {
	c, hz, wz := z.Dim(0), z.Dim(1), z.Dim(2)
	hx, wx := x.Dim(1), x.Dim(2)
	oh, ow := hx-hz+1, wx-wz+1
	out := tensor.New(c, oh, ow)
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float32
				for ky := 0; ky < hz; ky++ {
					for kx := 0; kx < wz; kx++ {
						s += z.At(ch, ky, kx) * x.At(ch, oy+ky, ox+kx)
					}
				}
				out.Set(s, ch, oy, ox)
			}
		}
	}
	return out
}

func TestDWXCorrMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := tensor.New(3, 2, 2)
	z.RandNormal(rng, 0, 1)
	x := tensor.New(3, 5, 4)
	x.RandNormal(rng, 0, 1)
	got := xcorr(t, z, x)
	want := naiveXCorr(z, x)
	for i := range want.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-5 {
			t.Fatalf("xcorr mismatch at %d", i)
		}
	}
}

func TestDWXCorrPeakAtMatch(t *testing.T) {
	// Embed the exemplar pattern in the search region; the response must
	// peak at the embedding position.
	rng := rand.New(rand.NewSource(2))
	z := tensor.New(2, 3, 3)
	z.RandNormal(rng, 0, 1)
	x := tensor.New(2, 8, 8)
	x.RandNormal(rng, 0, 0.05)
	py, px := 4, 2
	for c := 0; c < 2; c++ {
		for y := 0; y < 3; y++ {
			for xx := 0; xx < 3; xx++ {
				x.Set(z.At(c, y, xx), c, py+y, px+xx)
			}
		}
	}
	resp := xcorr(t, z, x)
	// Sum over channels and find the argmax.
	oh, ow := resp.Dim(1), resp.Dim(2)
	by, bx, best := -1, -1, float32(math.Inf(-1))
	for y := 0; y < oh; y++ {
		for xx := 0; xx < ow; xx++ {
			s := resp.At(0, y, xx) + resp.At(1, y, xx)
			if s > best {
				best, by, bx = s, y, xx
			}
		}
	}
	if by != py || bx != px {
		t.Fatalf("response peak at (%d,%d), want (%d,%d)", by, bx, py, px)
	}
}

func TestDWXCorrBackwardNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := tensor.New(2, 2, 2)
	z.RandNormal(rng, 0, 1)
	x := tensor.New(2, 4, 4)
	x.RandNormal(rng, 0, 1)
	r := tensor.New(2, 3, 3)
	r.RandNormal(rng, 0, 1)
	dx, err := DWXCorrBackward(z, x, r)
	if err != nil {
		t.Fatal(err)
	}
	const eps, tol = 1e-2, 1e-3
	for _, i := range []int{0, 3, 7, 13, 21, 31} {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		fp := dot(xcorr(t, z, x), r)
		x.Data[i] = orig - eps
		fm := dot(xcorr(t, z, x), r)
		x.Data[i] = orig
		num := (fp - fm) / (2 * eps)
		if math.Abs(num-float64(dx.Data[i])) > tol*(1+math.Abs(num)) {
			t.Fatalf("xcorr grad mismatch at %d: %v vs %v", i, dx.Data[i], num)
		}
	}
}

// tinyTracker builds a SkyNet-backbone tracker at test scale.
func tinyTracker(withMask bool, seed int64) *Tracker {
	rng := rand.New(rand.NewSource(seed))
	bcfg := backbone.Config{Width: 0.125, InC: 3, HeadChannels: 0, ReLU6: true}
	bb := backbone.SkyNetA(rng, bcfg)
	cfg := DefaultConfig()
	cfg.WithMask = withMask
	cfg.Seed = seed
	// SkyNet A headless at width 0.125 ends with 64-channel features.
	return New(bb, 64, cfg)
}

func testSequences(n int) []dataset.Sequence {
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = 96, 96 // square frames for square crops
	cfg.Clutter = 1
	gen := dataset.NewGenerator(cfg)
	sc := dataset.DefaultSequenceConfig()
	sc.Length = 8
	return gen.Sequences(n, sc)
}

// pair is MakePair on a geometry the test knows the tracker can step.
func pair(t testing.TB, tr *Tracker, seq dataset.Sequence, i, j int, rng *rand.Rand) Pair {
	t.Helper()
	p, err := tr.MakePair(seq, i, j, rng)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// step is Step on such a geometry.
func step(t testing.TB, tr *Tracker, p Pair, opt *nn.SGD) float32 {
	t.Helper()
	loss, err := tr.Step(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return loss
}

// trackSeq is Track on such a geometry.
func trackSeq(t testing.TB, tr *Tracker, seq dataset.Sequence) []float64 {
	t.Helper()
	ious, err := tr.Track(seq)
	if err != nil {
		t.Fatal(err)
	}
	return ious
}

// evaluate is Evaluate on such a geometry.
func evaluate(t testing.TB, tr *Tracker, seqs []dataset.Sequence) EvalResult {
	t.Helper()
	res, err := tr.Evaluate(seqs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// train is Train on such a geometry.
func train(t testing.TB, tr *Tracker, seqs []dataset.Sequence, cfg TrainConfig) {
	t.Helper()
	if _, err := tr.Train(seqs, cfg); err != nil {
		t.Fatal(err)
	}
}

// template is ExemplarFeaturesFor on a sequence's first frame and box.
func template(t testing.TB, tr *Tracker, seq dataset.Sequence) *tensor.Tensor {
	t.Helper()
	zf, err := tr.ExemplarFeaturesFor(seq.Frames[0], seq.Boxes[0])
	if err != nil {
		t.Fatal(err)
	}
	return zf
}

func TestTrackerShapes(t *testing.T) {
	tr := tinyTracker(false, 1)
	seqs := testSequences(1)
	rng := rand.New(rand.NewSource(4))
	p := pair(t, tr, seqs[0], 0, 3, rng)
	if p.Exemplar.Dim(1) != 32 || p.Search.Dim(1) != 64 {
		t.Fatalf("crop sizes %v / %v", p.Exemplar.Shape(), p.Search.Shape())
	}
	w, err := tr.work()
	if err != nil {
		t.Fatal(err)
	}
	r := w.r
	tr.free.Put(w)
	if r != 5 {
		t.Fatalf("response size %d, want 5", r)
	}
	if p.CellX < 0 || p.CellX >= r || p.CellY < 0 || p.CellY >= r {
		t.Fatalf("target cell (%d,%d) outside response", p.CellY, p.CellX)
	}
}

func TestTrackerStepReducesLoss(t *testing.T) {
	tr := tinyTracker(false, 2)
	seqs := testSequences(2)
	rng := rand.New(rand.NewSource(5))
	opt := nn.NewSGD(0.01, 0.9, 0)
	var first, last float32
	for i := 0; i < 30; i++ {
		seq := seqs[i%2]
		p := pair(t, tr, seq, 0, 1+i%4, rng)
		loss := step(t, tr, p, opt)
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("training loss did not decrease: %v -> %v", first, last)
	}
}

func TestTrackedBoxesFollowTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("900-step tracker training exceeds the -short budget")
	}
	// Generalizing to an unseen object appearance needs appearance
	// diversity in training: six training sequences, two held out.
	tr := tinyTracker(false, 4)
	seqs := testSequences(8)
	train(t, tr, seqs[:6], TrainConfig{Steps: 900, LR: 0.01, Seed: 6})
	ious := append(trackSeq(t, tr, seqs[6]), trackSeq(t, tr, seqs[7])...)
	if len(ious) != (seqs[6].Len()-1)+(seqs[7].Len()-1) {
		t.Fatalf("unexpected iou count %d", len(ious))
	}
	// A trained tracker on slow synthetic motion must keep meaningful
	// overlap on average (the target moves ≤ 3% per frame from a perfect
	// init).
	if AO(ious) < 0.25 {
		t.Fatalf("AO %.3f too low — tracker lost the target", AO(ious))
	}
}

// TestTrackerTrainingDeterministicAcrossWorkers pins tracker training —
// the layer walk's forward and backward, conv GEMMs split or not, the
// depth-wise backward's channels dealt or not — to the same bits at one
// worker and at four: the same parameters after the same steps, and the same
// AO from them.
func TestTrackerTrainingDeterministicAcrossWorkers(t *testing.T) {
	seqs := testSequences(3)
	trainAt := func(workers int) ([]*nn.Param, float64) {
		oldNN, oldT := nn.MaxParallelism, tensor.MaxParallelism
		nn.MaxParallelism, tensor.MaxParallelism = workers, workers
		defer func() { nn.MaxParallelism, tensor.MaxParallelism = oldNN, oldT }()
		tr := tinyTracker(false, 11)
		train(t, tr, seqs[:2], TrainConfig{Steps: 20, LR: 0.01, Seed: 12})
		return tr.Params(), evaluate(t, tr, seqs[2:]).AO
	}
	ps1, ao1 := trainAt(1)
	ps4, ao4 := trainAt(4)
	for i, p := range ps1 {
		if j := firstDiff(p.W.Data, ps4[i].W.Data); j >= 0 {
			t.Fatalf("param %d (%s) element %d: %v at one worker, %v at four", i, p.Name, j, p.W.Data[j], ps4[i].W.Data[j])
		}
	}
	if ao1 != ao4 {
		t.Fatalf("AO %v at one worker, %v at four", ao1, ao4)
	}
}

// firstDiff returns the first index where a and b differ bitwise, or -1.
func firstDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestEvaluateAggregates(t *testing.T) {
	tr := tinyTracker(false, 7)
	seqs := testSequences(2)
	res := evaluate(t, tr, seqs)
	if res.Frames != (seqs[0].Len()-1)+(seqs[1].Len()-1) {
		t.Fatalf("frames %d", res.Frames)
	}
	if res.FPS <= 0 {
		t.Fatal("FPS must be measured")
	}
	if res.AO < 0 || res.AO > 1 || res.SR50 < 0 || res.SR50 > 1 {
		t.Fatal("metrics out of range")
	}
	if res.SR75 > res.SR50 {
		t.Fatal("SR@0.75 cannot exceed SR@0.50")
	}
}

func TestSiamMaskVariant(t *testing.T) {
	tr := tinyTracker(true, 8)
	if tr.Mask == nil {
		t.Fatal("mask head missing")
	}
	seqs := testSequences(1)
	rng := rand.New(rand.NewSource(9))
	p := pair(t, tr, seqs[0], 0, 2, rng)
	if p.MaskGT == nil || p.MaskGT.Dim(1) != 16 {
		t.Fatalf("mask ground truth %v", p.MaskGT)
	}
	// The GT mask patch must contain both object and background pixels.
	if slices.Max(p.MaskGT.Data) == slices.Min(p.MaskGT.Data) {
		t.Fatal("degenerate mask patch")
	}
	opt := nn.NewSGD(0.01, 0.9, 0)
	var first, last float32
	for i := 0; i < 20; i++ {
		loss := step(t, tr, pair(t, tr, seqs[0], 0, 1+i%4, rng), opt)
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("SiamMask training loss did not decrease: %v -> %v", first, last)
	}
	_, mask, err := tr.StepE(template(t, tr, seqs[0]), seqs[0].Frames[1], seqs[0].Boxes[1], true)
	if err != nil {
		t.Fatal(err)
	}
	if mask.Dim(1) != 16 || slices.Min(mask.Data) < 0 || slices.Max(mask.Data) > 1 {
		t.Fatalf("peak mask invalid: %v range [%v,%v]", mask.Shape(), slices.Min(mask.Data), slices.Max(mask.Data))
	}
}

// TestStepEMaskWithoutHead: a mask asked of a tracker without a mask head is
// StepE's error, not a panic, and no box comes with it.
func TestStepEMaskWithoutHead(t *testing.T) {
	tr := tinyTracker(false, 10)
	seqs := testSequences(1)
	b, m, err := tr.StepE(template(t, tr, seqs[0]), seqs[0].Frames[1], seqs[0].Boxes[1], true)
	if err == nil || !strings.Contains(err.Error(), "without a mask head") {
		t.Fatalf("StepE asked a mask of a tracker without a mask head: box %+v, mask %v, error %v", b, m, err)
	}
}

// TestExemplarOutgrowingSearchIsAnError: at 64-pixel exemplars and 32-pixel
// search crops the exemplar features are larger than the search features,
// so there is no response to step on. Every entry point returns that
// geometry error, and none panics.
func TestExemplarOutgrowingSearchIsAnError(t *testing.T) {
	tr := geometryTracker(true, 21, 64, 32)
	seqs := testSequences(2)
	seq := seqs[0]
	opt := nn.NewSGD(0.01, 0.9, 0)
	p := Pair{
		Exemplar: tensor.New(3, 64, 64), Search: tensor.New(3, 32, 32),
		MaskGT: tensor.New(1, tr.Cfg.MaskSize, tr.Cfg.MaskSize),
	}
	zf := tensor.New(tr.Cfg.FeatC, 8, 8)
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"MakePair", func() error { _, err := tr.MakePair(seq, 0, 1, rand.New(rand.NewSource(1))); return err }},
		{"Step", func() error { _, err := tr.Step(p, opt); return err }},
		{"Train", func() error { _, err := tr.Train(seqs, TrainConfig{Steps: 2, Seed: 1}); return err }},
		{"Track", func() error { _, err := tr.Track(seq); return err }},
		{"Evaluate", func() error { _, err := tr.Evaluate(seqs); return err }},
		{"StepE", func() error { _, _, err := tr.StepE(zf, seq.Frames[1], seq.Boxes[0], true); return err }},
		{"ExemplarFeaturesFor", func() error { _, err := tr.ExemplarFeaturesFor(seq.Frames[0], seq.Boxes[0]); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if err := c.call(); err == nil || !strings.Contains(err.Error(), "larger than search features") {
				t.Fatalf("error %v, want the geometry error", err)
			}
		})
	}
}

func TestTrackSingleFrameSequence(t *testing.T) {
	// Failure injection: a one-frame clip has nothing to track; the loop
	// and metrics must degrade gracefully.
	tr := tinyTracker(false, 20)
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = 96, 96
	gen := dataset.NewGenerator(cfg)
	seq := gen.Sequence(dataset.SequenceConfig{Length: 1})
	ious := trackSeq(t, tr, seq)
	if len(ious) != 0 {
		t.Fatalf("one-frame clip produced %d ious", len(ious))
	}
	res := evaluate(t, tr, []dataset.Sequence{seq})
	if res.Frames != 0 || res.AO != 0 {
		t.Fatalf("empty evaluation should be zeroed: %+v", res)
	}
}

// Property: the area under the success curve — SR over a fine grid of
// thresholds in [0, 1) — converges to AO (the GOT-10k identity
// E[IoU] = ∫ SR(t) dt).
func TestQuickAUCConvergesToAO(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ious := make([]float64, 10+rng.Intn(40))
		for i := range ious {
			ious[i] = rng.Float64()
		}
		const n = 2000
		var auc float64
		for i := 0; i < n; i++ {
			auc += SR(ious, float64(i)/n) / n
		}
		return math.Abs(auc-AO(ious)) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsEdgeCases tables the degenerate inputs the GOT-10k metrics
// must survive: empty IoU sets (a set of one-frame clips), single
// observations, and exact-threshold boundaries (SR counts strict
// exceedance, so IoU == threshold does not succeed).
func TestMetricsEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		ious   []float64
		wantAO float64
		sr     map[float64]float64
	}{
		{
			name:   "empty set",
			ious:   nil,
			wantAO: 0,
			sr:     map[float64]float64{0: 0, 0.5: 0, 0.75: 0},
		},
		{
			name:   "single frame",
			ious:   []float64{0.6},
			wantAO: 0.6,
			sr:     map[float64]float64{0.5: 1, 0.75: 0},
		},
		{
			name:   "exact threshold is not a success",
			ious:   []float64{0.5, 0.5},
			wantAO: 0.5,
			sr:     map[float64]float64{0.5: 0, 0.49: 1},
		},
		{
			name:   "all zeros",
			ious:   []float64{0, 0, 0},
			wantAO: 0,
			sr:     map[float64]float64{0: 0, 0.5: 0},
		},
		{
			name:   "perfect tracking",
			ious:   []float64{1, 1},
			wantAO: 1,
			sr:     map[float64]float64{0.5: 1, 0.75: 1, 0.99: 1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := AO(c.ious); math.Abs(got-c.wantAO) > 1e-12 {
				t.Fatalf("AO = %v, want %v", got, c.wantAO)
			}
			for th, want := range c.sr {
				if got := SR(c.ious, th); math.Abs(got-want) > 1e-12 {
					t.Fatalf("SR@%v = %v, want %v", th, got, want)
				}
			}
		})
	}
}
