package quant

import (
	"skynet/internal/nn"
)

// Figure 2(a) quantizes an AlexNet-class model in four parameter groups:
// the first convolution (p2), the remaining convolutions (p3), the first
// two fully-connected layers (p4) and the final fully-connected layer (p5),
// with a separate precision p1 for the feature maps. GroupBits carries one
// such assignment.
type GroupBits struct {
	Name     string
	FMBits   int // p1; 0 = float32
	Conv1    int // p2
	ConvRest int // p3
	FC12     int // p4
	FC3      int // p5; 0 = float32 for any group
}

// ParamGroups classifies a classifier graph's parameters into the four
// Figure 2(a) groups by scanning layer types in order.
func ParamGroups(g *nn.Graph) map[string][]*nn.Param {
	groups := map[string][]*nn.Param{}
	convSeen, linearTotal, linearSeen := 0, 0, 0
	for _, n := range g.Nodes {
		if _, ok := n.Layer.(*nn.Linear); ok {
			linearTotal++
		}
	}
	for _, n := range g.Nodes {
		switch l := n.Layer.(type) {
		case *nn.Conv2D:
			key := "convRest"
			if convSeen == 0 {
				key = "conv1"
			}
			convSeen++
			groups[key] = append(groups[key], l.Params()...)
		case *nn.Linear:
			key := "fc12"
			if linearSeen == linearTotal-1 {
				key = "fc3"
			}
			linearSeen++
			groups[key] = append(groups[key], l.Params()...)
		default:
			groups["other"] = append(groups["other"], n.Layer.Params()...)
		}
	}
	return groups
}

// ApplyGroupBits fake-quantizes the model's parameters per the group
// assignment and returns a restore function. Group "other" (e.g. BatchNorm
// scales) stays float32, as hardware keeps such small tensors in high
// precision.
func ApplyGroupBits(g *nn.Graph, gb GroupBits) (restore func()) {
	groups := ParamGroups(g)
	restores := []func(){
		quantizeParams(groups["conv1"], gb.Conv1),
		quantizeParams(groups["convRest"], gb.ConvRest),
		quantizeParams(groups["fc12"], gb.FC12),
		quantizeParams(groups["fc3"], gb.FC3),
	}
	return func() {
		for _, r := range restores {
			r()
		}
	}
}

// GroupedParamBytes returns the stored model size under a group assignment.
func GroupedParamBytes(g *nn.Graph, gb GroupBits) int64 {
	groups := ParamGroups(g)
	bits := func(b int) int64 {
		if b <= 0 {
			return 32
		}
		return int64(b)
	}
	var total int64
	sum := func(key string, b int) {
		for _, p := range groups[key] {
			total += int64(p.W.Len()) * bits(b) / 8
		}
	}
	sum("conv1", gb.Conv1)
	sum("convRest", gb.ConvRest)
	sum("fc12", gb.FC12)
	sum("fc3", gb.FC3)
	sum("other", 0)
	return total
}

// Fig2aParamSchemes are the parameter-compression series (blue bubbles):
// feature maps stay float32 while parameter groups are compressed
// progressively, the most aggressive reaching the paper's ~22× model-size
// reduction via 1–2 bit fully-connected layers.
var Fig2aParamSchemes = []GroupBits{
	{Name: "#1 32-8,8,8,8", Conv1: 8, ConvRest: 8, FC12: 8, FC3: 8},
	{Name: "#2 32-8,8,4,8", Conv1: 8, ConvRest: 8, FC12: 4, FC3: 8},
	{Name: "#3 32-8,8,2,4", Conv1: 8, ConvRest: 8, FC12: 2, FC3: 4},
	{Name: "#4 32-8,8,1,2", Conv1: 8, ConvRest: 8, FC12: 1, FC3: 2},
	{Name: "#5 32-6,6,1,2", Conv1: 6, ConvRest: 6, FC12: 1, FC3: 2},
}

// Fig2aFMSchemes are the feature-map-compression series (green bubbles):
// parameters stay float32 while activations are compressed.
var Fig2aFMSchemes = []GroupBits{
	{Name: "#1 FM16", FMBits: 16},
	{Name: "#2 FM8", FMBits: 8},
	{Name: "#3 FM6", FMBits: 6},
	{Name: "#4 FM4", FMBits: 4},
	{Name: "#5 FM2", FMBits: 2},
}
