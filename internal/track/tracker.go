package track

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"skynet/internal/detect"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// Config sizes the tracker. The paper trains SkyNet with 128-pixel
// exemplars and 256-pixel search regions; the defaults here are the same
// geometry scaled 4× down for CPU-budget experiments.
type Config struct {
	ExemplarSize int // exemplar crop side in pixels
	SearchSize   int // search crop side in pixels (2× exemplar)
	FeatC        int // common feature width after the adjust layer
	Stride       int // backbone total stride
	WithMask     bool
	MaskSize     int // side of the predicted mask patch
	Seed         int64
}

// DefaultConfig returns the CPU-scale tracker geometry.
func DefaultConfig() Config {
	return Config{ExemplarSize: 32, SearchSize: 64, FeatC: 32, Stride: 8,
		MaskSize: 16, Seed: 1}
}

// nominalFrac is the expected target width as a fraction of the search
// window under the crop geometry (target ≈ half the exemplar window, the
// exemplar window is half the search window).
const nominalFrac = 0.25

// Tracker is a Siamese tracker: a shared backbone and adjust layer feed a
// depth-wise cross-correlation whose response drives classification, box
// regression, and optionally mask heads. With the mask head enabled it is
// the SiamMask-style variant; without, the SiamRPN++-style variant.
//
// New wires the network once, as the search-branch graph (both branches'
// inference plans, and the search branch's training walk) and the heads
// graph; Cfg and Backbone are fixed there. Every entry point returns its
// error — a malformed input, or a geometry it cannot step — and none panics.
//
// Its inference steps (ExemplarFeaturesFor, StepE and the calls built on
// them) write no layer, each on a workspace of its own: they are safe for
// concurrent use with one another, not beside training or a weight update.
type Tracker struct {
	Cfg      Config
	Backbone *nn.Graph
	Adjust   *nn.Conv2D
	Cls      *nn.Conv2D
	Reg      *nn.Conv2D
	Mask     *nn.Conv2D

	search *nn.Graph                  // the backbone's nodes, then Adjust on its output node
	heads  *nn.Graph                  // Cls, Reg and Mask, each on the response
	free   tensor.FreeList[workspace] // the step workspaces no step is running on (see work)
}

// New builds a tracker around a headless backbone with the given output
// channel count, and wires its two graphs.
func New(backbone *nn.Graph, backboneC int, cfg Config) *Tracker {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Tracker{
		Cfg:      cfg,
		Backbone: backbone,
		Adjust:   nn.NewPWConv1(rng, backboneC, cfg.FeatC, true),
		Cls:      nn.NewPWConv1(rng, cfg.FeatC, 1, true),
		Reg:      nn.NewPWConv1(rng, cfg.FeatC, 4, true),
		search:   nn.NewGraph(),
		heads:    nn.NewGraph(),
	}
	if cfg.WithMask {
		t.Mask = nn.NewPWConv1(rng, cfg.FeatC, cfg.MaskSize*cfg.MaskSize, true)
	}
	// The adjust layer reads the backbone's output, a node of one graph with it.
	t.search.Nodes = slices.Clone(backbone.Nodes)
	out := backbone.Output
	if out < 0 {
		out = len(backbone.Nodes) - 1
	}
	t.search.Add(t.Adjust, out)
	for _, h := range []*nn.Conv2D{t.Cls, t.Reg, t.Mask} {
		if h != nil {
			t.heads.Add(h, nn.GraphInput)
		}
	}
	t.free.Alloc = func() *workspace { return new(workspace) }
	return t
}

// Params returns every trainable parameter of the tracker: the backbone's,
// then Adjust's, Cls's, Reg's and Mask's.
func (t *Tracker) Params() []*nn.Param {
	return append(t.search.Params(), t.heads.Params()...)
}

// searchSidePixels returns the pixel side of the square search window for
// a box in an image of pixel size (imgH, imgW): 4× the target's larger
// dimension, so the exemplar window (half of it) gives the target ~2×
// context, the SiamFC-family convention.
//
//skynet:hotpath
func searchSidePixels(b detect.Box, imgH, imgW int) float64 {
	wPix := b.W * float64(imgW)
	hPix := b.H * float64(imgH)
	m := math.Max(wPix, hPix)
	if m < 4 {
		m = 4
	}
	return 4 * m // 2× the exemplar window, which is 2× the target
}

// cropAt resamples the square window of `sidePix` pixels centered at the
// normalized point (cx,cy) into dst, a [C,s,s] crop, through the column-tap
// table cols (at least s long). Border replication handles out-of-image
// regions; the window is sampled in the frame, never materialised.
//
//skynet:hotpath
func cropAt(dst, img *tensor.Tensor, cx, cy, sidePix float64, cols tensor.ColTaps) {
	h, w := img.Dim(1), img.Dim(2)
	side := int(math.Round(sidePix))
	if side < 2 {
		side = 2
	}
	y0 := int(math.Round(cy*float64(h) - float64(side)/2))
	x0 := int(math.Round(cx*float64(w) - float64(side)/2))
	tensor.CropResizeInto(dst, img, y0, x0, side, side, cols)
}

// crop is cropAt into a fresh [C,outPx,outPx] tensor.
func crop(img *tensor.Tensor, cx, cy, sidePix float64, outPx int) *tensor.Tensor {
	out := tensor.New(img.Dim(0), outPx, outPx)
	cropAt(out, img, cx, cy, sidePix, make(tensor.ColTaps, outPx))
	return out
}

// ExemplarCrop extracts the template crop for a box (half the search
// window, so the target fills about half the template).
func (t *Tracker) ExemplarCrop(img *tensor.Tensor, b detect.Box) *tensor.Tensor {
	side := searchSidePixels(b, img.Dim(1), img.Dim(2)) / 2
	return crop(img, b.CX, b.CY, side, t.Cfg.ExemplarSize)
}

// SearchCrop extracts the search crop centered at (cx,cy) sized for box b,
// returning the crop and its pixel side.
func (t *Tracker) SearchCrop(img *tensor.Tensor, b detect.Box, cx, cy float64) (*tensor.Tensor, float64) {
	side := searchSidePixels(b, img.Dim(1), img.Dim(2))
	return crop(img, cx, cy, side, t.Cfg.SearchSize), side
}

// workspace is what an inference step writes: each branch's crop and
// features, the response and the head maps, with the batch-of-one and
// per-sample views the steps read them through, and the executors that run
// the tracker's two graphs on them. Every step reuses it, whatever the frame
// size, so a step allocates nothing.
type workspace struct {
	plans *nn.PlanCache  // the search-branch graph: both branches' plans, on one arena
	heads *nn.Plan       // the heads graph on the response, a step each
	maps  [][]float32    // the heads' outputs [M,r,r], by step
	z, x  branch         // the exemplar's and the search region's
	cols  tensor.ColTaps // the crop's column taps, as wide as the wider crop
	r     int            // the response side
	resp  *tensor.Tensor // [C,r,r]
}

// branch is the forward of one crop size: the crop, and the plan of the
// backbone and adjust layer for it (on the workspace's executor) with its
// output.
type branch struct {
	crop  *tensor.Tensor // [3,s,s]
	crop4 *tensor.Tensor // crop as a batch of one
	plan  *nn.Plan
	adj   *tensor.Tensor // [1,C,f,f]
	feat  *tensor.Tensor // adj as [C,f,f]
}

// newBranch builds the branch for s-pixel crops. The feature side is the
// compiled plan's output shape — not the crop side divided by the stride,
// which disagrees with the backbone for sides that are not a multiple of it.
func newBranch(plans *nn.PlanCache, s int) branch {
	b := branch{crop: tensor.New(3, s, s)}
	b.crop4 = b.crop.Reshape(1, 3, s, s)
	b.plan = plans.For(b.crop4.Shape())
	b.adj = tensor.New(b.plan.OutShape(1)...)
	b.feat = b.adj.Reshape(b.adj.Dim(1), b.adj.Dim(2), b.adj.Dim(3))
	return b
}

// work takes a step workspace off the free list — compiling its plans on the
// tracker's two graphs on first use — for the caller to Put back once nothing
// it returns reaches into it. A geometry whose exemplar features outgrow its
// search features is an error, and leaves no workspace on the list.
func (t *Tracker) work() (*workspace, error) {
	w := t.free.Get()
	if w.plans != nil {
		return w, nil
	}
	plans := nn.NewPlanCache(t.search, nil)
	z, x := newBranch(plans, t.Cfg.ExemplarSize), newBranch(plans, t.Cfg.SearchSize)
	r := x.feat.Dim(1) - z.feat.Dim(1) + 1
	if r < 1 {
		return nil, fmt.Errorf("track: exemplar features %v larger than search features %v", z.feat.Shape(), x.feat.Shape())
	}
	*w = workspace{plans: plans, z: z, x: x, r: r, resp: tensor.New(t.Adjust.OutC, r, r),
		heads: nn.Compile(t.heads, []int{1, t.Adjust.OutC, r, r}, nil),
		cols:  make(tensor.ColTaps, max(t.Cfg.ExemplarSize, t.Cfg.SearchSize))}
	for _, n := range t.heads.Nodes {
		w.maps = append(w.maps, make([]float32, n.Layer.(*nn.Conv2D).OutC*r*r))
	}
	return w, nil
}

// Map is the heads' one input, the response, for nn.Plan.RunStep.
//
//skynet:hotpath
func (w *workspace) Map(int) []float32 { return w.resp.Data }

// head runs head k (Cls, Reg, Mask) on the response and returns its map.
//
//skynet:hotpath
func (w *workspace) head(k int) []float32 {
	steps, _ := w.heads.Steps()
	w.heads.Load(&steps[k])
	w.heads.RunStep(&steps[k], w.maps[k], w, nil, false)
	return w.maps[k]
}
