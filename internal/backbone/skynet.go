package backbone

import (
	"math/rand"

	"skynet/internal/bundle"
	"skynet/internal/nn"
)

// SkyNetVariant selects one of the Table 3 configurations.
type SkyNetVariant int

// The three SkyNet configurations of Table 3.
const (
	VariantA SkyNetVariant = iota // chain only, no bypass
	VariantB                      // bypass, 48-channel fusion
	VariantC                      // bypass, 96-channel fusion (the contest model)
)

// String returns "A", "B" or "C".
func (v SkyNetVariant) String() string { return [...]string{"A", "B", "C"}[v] }

// SkyNet builds the Table 3 architecture for the given variant: a
// bundle.Chain of six DW-Conv3 → PW-Conv1 → BN → activation Bundles with
// three 2×2 max-poolings (total stride 8). Models B and C add the bypass:
// the Bundle-3 output (192 channels at stride 4) is reordered
// (space-to-depth, Figure 5) to 768 channels at stride 8 and concatenated
// with the Bundle-5 output before the final Bundle, 48 channels wide in B
// and 96 in C; model A ends at Bundle 5. At Width=1 the parameter counts
// reproduce the paper's 1.27/1.57/1.82 MB model sizes (Table 4).
func SkyNet(rng *rand.Rand, cfg Config, variant SkyNetVariant) *nn.Graph {
	cfg.normalize()
	b := bundle.Bundle{Components: []bundle.Component{bundle.DW3, bundle.PW, bundle.BN, bundle.ReLU}}
	if cfg.ReLU6 {
		b = b.WithReLU6()
	}
	var channels []int
	for _, ch := range [...]int{48, 96, 192, 384, 512} {
		channels = append(channels, cfg.scale(ch))
	}
	switch variant {
	case VariantB:
		channels = append(channels, cfg.scale(48))
	case VariantC:
		channels = append(channels, cfg.scale(96))
	}
	g, _ := bundle.Chain{Bundle: b, Channels: channels, PoolAfter: []int{0, 1, 2},
		InC: cfg.InC, HeadC: cfg.HeadChannels, Bypass: variant != VariantA}.Build(rng)
	return g
}

// SkyNetA builds Table 3 model A.
func SkyNetA(rng *rand.Rand, cfg Config) *nn.Graph { return SkyNet(rng, cfg, VariantA) }

// SkyNetB builds Table 3 model B.
func SkyNetB(rng *rand.Rand, cfg Config) *nn.Graph { return SkyNet(rng, cfg, VariantB) }

// SkyNetC builds Table 3 model C — the DAC-SDC winning configuration.
func SkyNetC(rng *rand.Rand, cfg Config) *nn.Graph { return SkyNet(rng, cfg, VariantC) }

// SkyNetStride is the architecture's total downsampling factor.
const SkyNetStride = 8
