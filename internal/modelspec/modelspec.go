// Package modelspec makes trained models self-describing on disk: a Spec
// records which architecture a weight snapshot belongs to (family, variant,
// width, head configuration), and a checkpoint bundles the spec with the
// weights so tools reload a model without repeating builder flags. The
// checkpoint is the repository's only model file: skynet-train writes it,
// and skynet-detect, skynet-serve (and its /admin/swap) and skynet-sim load
// it.
package modelspec

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"skynet/internal/backbone"
	"skynet/internal/detect"
	"skynet/internal/nn"
)

// Spec describes a detector architecture.
type Spec struct {
	// Family selects the builder: skynet, resnet18, resnet34, resnet50,
	// vgg16, mobilenet, alexnet-features.
	Family string `json:"family"`
	// Variant is the SkyNet configuration (A, B or C); ignored otherwise.
	Variant string  `json:"variant,omitempty"`
	Width   float64 `json:"width"`
	InC     int     `json:"in_channels"`
	// HeadChannels of the detection back-end (10 for the SkyNet head).
	HeadChannels int  `json:"head_channels"`
	MaxStride    int  `json:"max_stride,omitempty"`
	ReLU6        bool `json:"relu6"`
	// Classes configures the detection head (0 = SkyNet's classless head).
	Classes int `json:"classes,omitempty"`
	// Seed used for the deterministic builder.
	Seed int64 `json:"seed"`

	// The searched-architecture genome, used only by Family "search"
	// (see search.go): the enumeration ID of the Bundle to replicate, the
	// output channel width of each replication, the slot indices followed
	// by 2×2 pooling, and whether the Stage-3 feature bypass is applied.
	Bundle   int   `json:"bundle,omitempty"`
	Channels []int `json:"channels,omitempty"`
	PoolPos  []int `json:"pool_pos,omitempty"`
	Bypass   bool  `json:"bypass,omitempty"`
}

// DefaultSpec is a CPU-scale SkyNet C detector.
func DefaultSpec() Spec {
	return Spec{Family: "skynet", Variant: "C", Width: 0.25, InC: 3,
		HeadChannels: 10, ReLU6: true, Seed: 1}
}

// builders maps family names to backbone builders.
func (s Spec) builder() (backbone.Builder, error) {
	switch s.Family {
	case "skynet":
		switch s.Variant {
		case "A", "a":
			return backbone.SkyNetA, nil
		case "B", "b":
			return backbone.SkyNetB, nil
		case "C", "c", "":
			return backbone.SkyNetC, nil
		}
		return nil, fmt.Errorf("modelspec: unknown SkyNet variant %q", s.Variant)
	case "resnet18":
		return backbone.ResNet18, nil
	case "resnet34":
		return backbone.ResNet34, nil
	case "resnet50":
		return backbone.ResNet50, nil
	case "vgg16":
		return backbone.VGG16, nil
	case "mobilenet":
		return backbone.MobileNetV1, nil
	case "alexnet-features":
		return backbone.AlexNetFeatures, nil
	}
	return nil, fmt.Errorf("modelspec: unknown family %q", s.Family)
}

// The most a spec, which may come from a file, can ask a builder for: a
// width multiplier, a layer's channels and a search candidate's slots.
const maxWidth, MaxChannels, MaxSlots = 4, 2048, 16

// Build constructs the graph and matching detection head. A spec out of the
// bounds above — a hostile one would panic a make or exhaust memory — is an
// error before anything is allocated, and so is a classless spec whose
// head_channels is neither 0 (no head) nor what the head decodes.
func (s Spec) Build() (*nn.Graph, *detect.Head, error) {
	ok := s.Width >= 0 && s.Width <= maxWidth && len(s.Channels) <= MaxSlots // NaN fails too
	for i, n := range append([]int{s.InC, s.HeadChannels, s.Classes}, s.Channels...) {
		ok = ok && n >= 0 && n <= MaxChannels && (i < 3 || n > 0) // a slot has a channel
	}
	if !ok {
		return nil, nil, fmt.Errorf("modelspec: spec out of range (width ≤ %d, channels ≤ %d, slots ≤ %d): %+v", maxWidth, MaxChannels, MaxSlots, s)
	}
	var head *detect.Head
	if s.Classes > 0 {
		head = detect.NewClassHead(nil, s.Classes)
		s.HeadChannels = head.Channels()
	} else if s.HeadChannels > 0 {
		head = detect.NewHead(nil)
		if s.HeadChannels != head.Channels() {
			return nil, nil, fmt.Errorf("modelspec: head_channels %d, the classless head decodes %d", s.HeadChannels, head.Channels())
		}
	}
	if s.Family == FamilySearch {
		g, err := s.buildSearch()
		if err != nil {
			return nil, nil, err
		}
		return g, head, nil
	}
	b, err := s.builder()
	if err != nil {
		return nil, nil, err
	}
	g := b(rand.New(rand.NewSource(s.Seed)), backbone.Config{
		Width: s.Width, InC: s.InC, HeadChannels: s.HeadChannels,
		MaxStride: s.MaxStride, ReLU6: s.ReLU6,
	})
	return g, head, nil
}

// checkpoint is the on-disk bundle: the spec plus the graph's weight
// snapshot (the nn state-dict stream).
type checkpoint struct {
	Format   int
	SpecJSON []byte
	Weights  []byte
}

const checkpointFormat = 1

// SaveCheckpoint writes spec + weights to one file.
func SaveCheckpoint(path string, s Spec, g *nn.Graph) error {
	specJSON, err := json.Marshal(s)
	if err != nil {
		return err
	}
	var weights bytes.Buffer
	if err := g.Save(&weights); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(checkpoint{
		Format: checkpointFormat, SpecJSON: specJSON, Weights: weights.Bytes(),
	}); err != nil {
		return err
	}
	return f.Close()
}

// LoadCheckpoint rebuilds the architecture from the embedded spec and
// restores its weights.
func LoadCheckpoint(path string) (Spec, *nn.Graph, *detect.Head, error) {
	var s Spec
	f, err := os.Open(path)
	if err != nil {
		return s, nil, nil, err
	}
	defer f.Close()
	var ck checkpoint
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return s, nil, nil, fmt.Errorf("modelspec: decoding %s: %w", path, err)
	}
	if ck.Format != checkpointFormat {
		return s, nil, nil, fmt.Errorf("modelspec: unsupported checkpoint format %d", ck.Format)
	}
	if err := json.Unmarshal(ck.SpecJSON, &s); err != nil {
		return s, nil, nil, err
	}
	g, head, err := s.Build()
	if err != nil {
		return s, nil, nil, err
	}
	if err := g.Load(bytes.NewReader(ck.Weights)); err != nil {
		return s, nil, nil, err
	}
	return s, g, head, nil
}
