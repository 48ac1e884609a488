package backbone

import (
	"math/rand"

	"skynet/internal/nn"
)

// strideBudget doles out stride-2 stages until the configured cap is hit,
// after which further downsampling requests degrade to stride 1. This keeps
// deep backbones usable on small synthetic inputs while leaving the
// full-size architecture untouched when MaxStride is unset.
type strideBudget struct {
	cur, max int
}

func (s *strideBudget) take() int {
	if s.cur*2 <= s.max {
		s.cur *= 2
		return 2
	}
	return 1
}

// basicBlock is the ResNet-18/34 residual block: two 3×3 convolutions with
// an identity (or 1×1 projection) shortcut.
func basicBlock(g *nn.Graph, rng *rand.Rand, inC, outC, stride, from int) int {
	i := g.Add(nn.NewConv2D(rng, inC, outC, 3, stride, 1, false), from)
	i = g.Add(nn.NewBatchNorm(outC), i)
	i = g.Add(nn.NewReLU(), i)
	i = g.Add(nn.NewConv2D(rng, outC, outC, 3, 1, 1, false), i)
	i = g.Add(nn.NewBatchNorm(outC), i)
	short := from
	if stride != 1 || inC != outC {
		short = g.Add(nn.NewConv2D(rng, inC, outC, 1, stride, 0, false), from)
		short = g.Add(nn.NewBatchNorm(outC), short)
	}
	i = g.Add(nn.NewAdd(), i, short)
	return g.Add(nn.NewReLU(), i)
}

// bottleneckBlock is the ResNet-50 block: 1×1 reduce, 3×3, 1×1 expand (4×).
func bottleneckBlock(g *nn.Graph, rng *rand.Rand, inC, midC, stride, from int) int {
	outC := midC * 4
	i := g.Add(nn.NewConv2D(rng, inC, midC, 1, 1, 0, false), from)
	i = g.Add(nn.NewBatchNorm(midC), i)
	i = g.Add(nn.NewReLU(), i)
	i = g.Add(nn.NewConv2D(rng, midC, midC, 3, stride, 1, false), i)
	i = g.Add(nn.NewBatchNorm(midC), i)
	i = g.Add(nn.NewReLU(), i)
	i = g.Add(nn.NewConv2D(rng, midC, outC, 1, 1, 0, false), i)
	i = g.Add(nn.NewBatchNorm(outC), i)
	short := from
	if stride != 1 || inC != outC {
		short = g.Add(nn.NewConv2D(rng, inC, outC, 1, stride, 0, false), from)
		short = g.Add(nn.NewBatchNorm(outC), short)
	}
	i = g.Add(nn.NewAdd(), i, short)
	return g.Add(nn.NewReLU(), i)
}

// resNet assembles a ResNet with the given per-stage block counts. When
// bottleneck is false the basic block is used (ResNet-18/34), otherwise the
// 4× bottleneck (ResNet-50). The stem is the standard 7×7/2 convolution
// followed by a 2×2 max pool (the paper's 3×3/2 pool has no parameters, so
// the non-overlapping pool changes nothing for Table 2's parameter
// comparison).
func resNet(rng *rand.Rand, cfg Config, blocks [4]int, bottleneck bool) *nn.Graph {
	cfg.normalize()
	g := nn.NewGraph()
	sb := &strideBudget{cur: 1, max: cfg.MaxStride}
	stemC := cfg.scale(64)
	i := g.Add(nn.NewConv2D(rng, cfg.InC, stemC, 7, sb.take(), 3, false), nn.GraphInput)
	i = g.Add(nn.NewBatchNorm(stemC), i)
	i = g.Add(nn.NewReLU(), i)
	if sb.take() == 2 {
		i = g.Add(nn.NewMaxPool(2), i)
	}
	inC := stemC
	stageC := [4]int{cfg.scale(64), cfg.scale(128), cfg.scale(256), cfg.scale(512)}
	for s := 0; s < 4; s++ {
		stride := 1
		if s > 0 {
			stride = sb.take()
		}
		for b := 0; b < blocks[s]; b++ {
			st := 1
			if b == 0 {
				st = stride
			}
			if bottleneck {
				i = bottleneckBlock(g, rng, inC, stageC[s], st, i)
				inC = stageC[s] * 4
			} else {
				i = basicBlock(g, rng, inC, stageC[s], st, i)
				inC = stageC[s]
			}
		}
	}
	if cfg.HeadChannels > 0 {
		g.Add(nn.NewPWConv1(rng, inC, cfg.HeadChannels, true), i)
	}
	return g
}

// ResNet18 builds a ResNet-18 feature extractor (He et al., 2016).
func ResNet18(rng *rand.Rand, cfg Config) *nn.Graph {
	return resNet(rng, cfg, [4]int{2, 2, 2, 2}, false)
}

// ResNet34 builds a ResNet-34 feature extractor.
func ResNet34(rng *rand.Rand, cfg Config) *nn.Graph {
	return resNet(rng, cfg, [4]int{3, 4, 6, 3}, false)
}

// ResNet50 builds a ResNet-50 feature extractor (bottleneck blocks).
func ResNet50(rng *rand.Rand, cfg Config) *nn.Graph {
	return resNet(rng, cfg, [4]int{3, 4, 6, 3}, true)
}
