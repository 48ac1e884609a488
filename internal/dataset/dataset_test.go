package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

func TestSampleAreaRatioMatchesFigure6(t *testing.T) {
	// Figure 6: 31% of boxes under 1% of the image area, 91% under 9%.
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	var under1, under9 int
	for i := 0; i < n; i++ {
		r := SampleAreaRatio(rng)
		if r < 0.01 {
			under1++
		}
		if r < 0.09 {
			under9++
		}
		if r <= 0 || r > 0.5 {
			t.Fatalf("area ratio %v out of range", r)
		}
	}
	p1 := float64(under1) / n
	p9 := float64(under9) / n
	if math.Abs(p1-0.31) > 0.02 {
		t.Fatalf("P(area<1%%) = %v, want ≈ 0.31", p1)
	}
	if math.Abs(p9-0.91) > 0.02 {
		t.Fatalf("P(area<9%%) = %v, want ≈ 0.91", p9)
	}
}

func TestSceneBasics(t *testing.T) {
	g := NewGenerator(DefaultConfig())
	s := g.Scene()
	if s.Image.Dim(0) != 3 || s.Image.Dim(1) != 48 || s.Image.Dim(2) != 96 {
		t.Fatalf("image shape %v", s.Image.Shape())
	}
	if s.Image.Min() < 0 || s.Image.Max() > 1 {
		t.Fatalf("pixel range [%v, %v] outside [0,1]", s.Image.Min(), s.Image.Max())
	}
	if s.Category < 0 || s.Category >= NumCategories {
		t.Fatalf("category %d", s.Category)
	}
	if s.SubCategory < 0 || s.SubCategory >= NumSubCategories {
		t.Fatalf("subcategory %d", s.SubCategory)
	}
	x1, y1, x2, y2 := s.Box.Corners()
	if x1 < -1e-9 || y1 < -1e-9 || x2 > 1+1e-9 || y2 > 1+1e-9 {
		t.Fatalf("box out of image: %+v", s.Box)
	}
}

func TestSceneMaskInsideBox(t *testing.T) {
	g := NewGenerator(DefaultConfig())
	for trial := 0; trial < 20; trial++ {
		s := g.Scene()
		h, w := 48, 96
		x1, y1, x2, y2 := s.Box.Corners()
		var any bool
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if s.Mask.At(0, y, x) == 0 {
					continue
				}
				any = true
				fx, fy := (float64(x)+0.5)/float64(w), (float64(y)+0.5)/float64(h)
				if fx < x1-0.02 || fx > x2+0.02 || fy < y1-0.02 || fy > y2+0.02 {
					t.Fatalf("mask pixel (%d,%d) outside box %+v", x, y, s.Box)
				}
			}
		}
		if !any {
			t.Fatalf("empty mask for box %+v", s.Box)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a := NewGenerator(cfg).Scene()
	b := NewGenerator(cfg).Scene()
	if a.Box != b.Box || a.Category != b.Category {
		t.Fatal("generator must be deterministic from its seed")
	}
	for i := range a.Image.Data {
		if a.Image.Data[i] != b.Image.Data[i] {
			t.Fatal("image data differs across equal seeds")
		}
	}
}

func TestDetectionSetAndClassificationSet(t *testing.T) {
	g := NewGenerator(DefaultConfig())
	det := g.DetectionSet(5)
	if len(det) != 5 {
		t.Fatalf("got %d detection samples", len(det))
	}
	imgs, labels := g.ClassificationSet(6)
	if len(imgs) != 6 || len(labels) != 6 {
		t.Fatal("classification set sizes wrong")
	}
	for _, l := range labels {
		if l < 0 || l >= NumCategories {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestCategoriesAreVisuallyDistinct(t *testing.T) {
	// Different categories must produce different silhouettes: compare
	// shape membership grids.
	grid := func(cat int) string {
		var sb strings.Builder
		for y := 0; y < 12; y++ {
			for x := 0; x < 12; x++ {
				if inShape(cat, (float64(x)+0.5)/12, (float64(y)+0.5)/12) {
					sb.WriteByte('#')
				} else {
					sb.WriteByte('.')
				}
			}
		}
		return sb.String()
	}
	seen := map[string]int{}
	for c := 0; c < NumCategories; c++ {
		g := grid(c)
		if prev, dup := seen[g]; dup {
			t.Fatalf("categories %d and %d have identical silhouettes", prev, c)
		}
		seen[g] = c
	}
}

func TestSubAppearanceStable(t *testing.T) {
	c1, f1, a1 := subAppearance(3, 42)
	c2, f2, a2 := subAppearance(3, 42)
	if c1 != c2 || f1 != f2 || a1 != a2 {
		t.Fatal("sub-category appearance must be deterministic")
	}
	c3, _, _ := subAppearance(3, 43)
	if c1 == c3 {
		t.Fatal("adjacent sub-categories should differ in color")
	}
}

func TestBilinearResizeIdentity(t *testing.T) {
	g := NewGenerator(DefaultConfig())
	s := g.Scene()
	r := BilinearResize(s.Image, 48, 96)
	for i := range s.Image.Data {
		if r.Data[i] != s.Image.Data[i] {
			t.Fatal("identity resize must preserve pixels")
		}
	}
}

func TestBilinearResizeConstant(t *testing.T) {
	img := tensor.New(3, 8, 8)
	img.Fill(0.5)
	r := BilinearResize(img, 5, 13)
	if r.Dim(1) != 5 || r.Dim(2) != 13 {
		t.Fatalf("resize shape %v", r.Shape())
	}
	for _, v := range r.Data {
		if math.Abs(float64(v)-0.5) > 1e-6 {
			t.Fatalf("constant image must stay constant, got %v", v)
		}
	}
}

// Property: resizing never exceeds the input's value range (bilinear is a
// convex combination).
func TestQuickResizeRangeBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		img := tensor.New(1, 4+rng.Intn(8), 4+rng.Intn(8))
		img.RandUniform(rng, 0, 1)
		r := BilinearResize(img, 3+rng.Intn(10), 3+rng.Intn(10))
		return r.Min() >= img.Min()-1e-6 && r.Max() <= img.Max()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCropValuesAndBorderReplication(t *testing.T) {
	img := tensor.FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	c := Crop(img, 1, 1, 2, 2)
	want := []float32{5, 6, 8, 9}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("crop got %v, want %v", c.Data, want)
		}
	}
	// Negative offset replicates the border.
	c2 := Crop(img, -1, -1, 2, 2)
	if c2.At(0, 0, 0) != 1 || c2.At(0, 1, 1) != 1 {
		t.Fatalf("border replication wrong: %v", c2.Data)
	}
}

// TestCropAllocatesOnlyItsOutput pins Crop's cost at the tracker's search
// window size: addressing every pixel through At/Set must add nothing to
// the allocation of the returned tensor itself.
func TestCropAllocatesOnlyItsOutput(t *testing.T) {
	img := tensor.New(3, 160, 160)
	var sink *tensor.Tensor
	want := testing.AllocsPerRun(10, func() { sink = tensor.New(3, 131, 131) })
	got := testing.AllocsPerRun(10, func() { sink = Crop(img, -20, 100, 131, 131) })
	if got != want {
		t.Fatalf("Crop: %v allocs/op, want %v (tensor.New of its output)", got, want)
	}
	_ = sink
}

func TestAugmentorKeepsBoxConsistent(t *testing.T) {
	g := NewGenerator(DefaultConfig())
	aug := NewAugmentor(7, 0.2, 0.1)
	for trial := 0; trial < 10; trial++ {
		s := g.Scene()
		out := aug.Apply(detect.Sample{Image: s.Image, Box: s.Box})
		if !out.Image.SameShape(s.Image) {
			t.Fatal("augmentation must preserve resolution")
		}
		x1, y1, x2, y2 := out.Box.Corners()
		if x1 < -1e-9 || y1 < -1e-9 || x2 > 1+1e-9 || y2 > 1+1e-9 {
			t.Fatalf("augmented box out of image: %+v", out.Box)
		}
		// The jitter bound guarantees the box cannot move more than
		// MaxJitter (plus clipping effects).
		if math.Abs(out.Box.CX-s.Box.CX) > 0.1+s.Box.W/2+1e-9 {
			t.Fatalf("box moved too far: %v -> %v", s.Box.CX, out.Box.CX)
		}
	}
}

func TestSequenceGeneration(t *testing.T) {
	g := NewGenerator(DefaultConfig())
	cfg := DefaultSequenceConfig()
	seq := g.Sequence(cfg)
	if seq.Len() != cfg.Length {
		t.Fatalf("sequence length %d, want %d", seq.Len(), cfg.Length)
	}
	if len(seq.Boxes) != cfg.Length || len(seq.Masks) != cfg.Length {
		t.Fatal("boxes/masks length mismatch")
	}
	// Motion continuity: per-frame displacement bounded by ~2*MaxStep.
	for i := 1; i < seq.Len(); i++ {
		d := math.Hypot(seq.Boxes[i].CX-seq.Boxes[i-1].CX, seq.Boxes[i].CY-seq.Boxes[i-1].CY)
		if d > 3*cfg.MaxStep {
			t.Fatalf("frame %d jumped %v (> 3*MaxStep)", i, d)
		}
	}
	// The object must actually move over the clip.
	total := math.Hypot(seq.Boxes[seq.Len()-1].CX-seq.Boxes[0].CX,
		seq.Boxes[seq.Len()-1].CY-seq.Boxes[0].CY)
	var maxD float64
	for i := range seq.Boxes {
		d := math.Hypot(seq.Boxes[i].CX-seq.Boxes[0].CX, seq.Boxes[i].CY-seq.Boxes[0].CY)
		if d > maxD {
			maxD = d
		}
	}
	if total == 0 && maxD == 0 {
		t.Fatal("object never moved")
	}
	// Boxes stay inside the image.
	for i, b := range seq.Boxes {
		x1, y1, x2, y2 := b.Corners()
		if x1 < -1e-6 || y1 < -1e-6 || x2 > 1+1e-6 || y2 > 1+1e-6 {
			t.Fatalf("frame %d box out of bounds: %+v", i, b)
		}
	}
}

func TestSequencesCount(t *testing.T) {
	g := NewGenerator(DefaultConfig())
	seqs := g.Sequences(3, SequenceConfig{Length: 4})
	if len(seqs) != 3 || seqs[2].Len() != 4 {
		t.Fatal("Sequences wrong shape")
	}
}

func TestDrawBoxMarksEdges(t *testing.T) {
	img := tensor.New(3, 10, 10)
	DrawBox(img, detect.Box{CX: 0.5, CY: 0.5, W: 0.4, H: 0.4}, 1, 0, 0)
	if img.At(0, 3, 5) != 1 {
		t.Fatal("top edge not drawn")
	}
	if img.At(0, 5, 5) != 0 {
		t.Fatal("interior must stay untouched")
	}
}

func TestWritePPM(t *testing.T) {
	img := tensor.New(3, 4, 5)
	img.Fill(0.5)
	var buf bytes.Buffer
	if err := WritePPM(&buf, img); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "P6\n5 4\n255\n") {
		t.Fatalf("bad PPM header: %q", buf.String()[:12])
	}
	if buf.Len() != len("P6\n5 4\n255\n")+4*5*3 {
		t.Fatalf("PPM payload size %d", buf.Len())
	}
	if err := WritePPM(&buf, tensor.New(1, 2, 2)); err == nil {
		t.Fatal("WritePPM must reject non-RGB input")
	}
}

func TestASCIIRenderShowsBoxes(t *testing.T) {
	g := NewGenerator(DefaultConfig())
	s := g.Scene()
	out := ASCIIRender(s.Image, s.Box, s.Box, 48)
	if !strings.Contains(out, "B") {
		t.Fatal("coincident boxes must render as 'B'")
	}
	out2 := ASCIIRender(s.Image, detect.Box{CX: 0.2, CY: 0.5, W: 0.2, H: 0.4},
		detect.Box{CX: 0.8, CY: 0.5, W: 0.2, H: 0.4}, 48)
	if !strings.Contains(out2, "G") || !strings.Contains(out2, "P") {
		t.Fatal("distinct boxes must render as 'G' and 'P'")
	}
}

func TestCategoryName(t *testing.T) {
	if CategoryName(0) == "" || CategoryName(11) == "" {
		t.Fatal("category names must be non-empty")
	}
	if CategoryName(12) != CategoryName(0) {
		t.Fatal("CategoryName must wrap modulo NumCategories")
	}
}

func TestSequenceOcclusion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.W, cfg.H = 96, 96
	cfg.NoiseStd = 0
	g := NewGenerator(cfg)
	sc := DefaultSequenceConfig()
	sc.Length = 30
	sc.OcclusionProb = 1 // occlude every frame
	seq := g.Sequence(sc)
	occluded := 0
	for f := 0; f < seq.Len(); f++ {
		// The mask under the GT box must have fewer object pixels than an
		// unoccluded rendering would produce.
		var maskPixels float64
		for _, v := range seq.Masks[f].Data {
			maskPixels += float64(v)
		}
		boxPixels := seq.Boxes[f].Area() * float64(96*96)
		if maskPixels < boxPixels*0.8 {
			occluded++
		}
	}
	if occluded < seq.Len()/2 {
		t.Fatalf("only %d/%d frames show occlusion", occluded, seq.Len())
	}
	// Without occlusion the masks stay fuller.
	sc.OcclusionProb = 0
	g2 := NewGenerator(cfg)
	seq2 := g2.Sequence(sc)
	var withOcc, without float64
	for f := 0; f < seq.Len(); f++ {
		for _, v := range seq.Masks[f].Data {
			withOcc += float64(v)
		}
	}
	for f := 0; f < seq2.Len(); f++ {
		for _, v := range seq2.Masks[f].Data {
			without += float64(v)
		}
	}
	if withOcc/float64(seq.Len()) >= without/float64(seq2.Len()) {
		t.Fatal("occlusion must remove mask pixels on average")
	}
}

// TestCalibrationBatchesMatchSceneLoop: the commands' calibration set —
// DetectionSet cut by detect.Batches — is bitwise the per-command loop it
// replaced, which stacked gen.Scene() images into batches of 8 (20 scenes:
// 8, 8, 4).
func TestCalibrationBatchesMatchSceneLoop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.W, cfg.H = 96, 48
	cfg.Seed = 100
	const n, bs = 20, 8
	gen := NewGenerator(cfg)
	var want []*tensor.Tensor
	for lo := 0; lo < n; lo += bs {
		b := min(bs, n-lo)
		x := tensor.New(b, 3, cfg.H, cfg.W)
		per := 3 * cfg.H * cfg.W
		for i := 0; i < b; i++ {
			copy(x.Data[i*per:(i+1)*per], gen.Scene().Image.Data)
		}
		want = append(want, x)
	}
	got := detect.Batches(NewGenerator(cfg).DetectionSet(n), bs)
	if len(got) != 3 || len(want) != 3 {
		t.Fatalf("%d batches, the loop made %d; want 3", len(got), len(want))
	}
	for i := range got {
		if !got[i].SameShape(want[i]) {
			t.Fatalf("batch %d shape %v, the loop's %v", i, got[i].Shape(), want[i].Shape())
		}
		for j, v := range got[i].Data {
			if math.Float32bits(v) != math.Float32bits(want[i].Data[j]) {
				t.Fatalf("batch %d element %d differs", i, j)
			}
		}
	}
}
