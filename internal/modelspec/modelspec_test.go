package modelspec

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/tensor"
)

func TestSpecBuildFamilies(t *testing.T) {
	for _, family := range []string{"skynet", "resnet18", "resnet34", "resnet50",
		"vgg16", "mobilenet", "alexnet-features"} {
		s := DefaultSpec()
		s.Family = family
		s.Width = 0.125
		s.MaxStride = 8
		g, head, err := s.Build()
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if g == nil || head == nil {
			t.Fatalf("%s: nil graph or head", family)
		}
		x := tensor.New(1, 3, 48, 96)
		out := g.Forward(x, false)
		if out.Dim(1) != head.Channels() {
			t.Fatalf("%s: output channels %d, head expects %d", family, out.Dim(1), head.Channels())
		}
	}
}

func TestSpecBuildRejectsUnknown(t *testing.T) {
	s := DefaultSpec()
	s.Family = "nonsense"
	if _, _, err := s.Build(); err == nil {
		t.Fatal("unknown family must error")
	}
	s = DefaultSpec()
	s.Variant = "Z"
	if _, _, err := s.Build(); err == nil {
		t.Fatal("unknown variant must error")
	}
}

func TestSpecClassHead(t *testing.T) {
	s := DefaultSpec()
	s.Classes = 12
	g, head, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if head.Classes != 12 {
		t.Fatalf("head classes %d", head.Classes)
	}
	x := tensor.New(1, 3, 16, 16)
	out := g.Forward(x, false)
	if out.Dim(1) != head.Channels() {
		t.Fatalf("class-head output channels %d, want %d", out.Dim(1), head.Channels())
	}
}

// TestSpecBuildRejectsForeignHeadChannels: a classless spec builds the
// SkyNet head, which decodes 10 channels; a spec naming another count would
// build a model whose every prediction the head cannot decode.
func TestSpecBuildRejectsForeignHeadChannels(t *testing.T) {
	for _, n := range []int{1, 9, 11, 12} {
		s := DefaultSpec()
		s.HeadChannels = n
		if _, _, err := s.Build(); err == nil {
			t.Errorf("a classless spec with head_channels %d built", n)
		}
	}
	s := DefaultSpec()
	s.HeadChannels = 0
	if _, head, err := s.Build(); err != nil || head != nil {
		t.Fatalf("head_channels 0: head %v, err %v; want no head and no error", head, err)
	}
}

// TestSpecJSONRoundTrip: the spec a checkpoint embeds decodes to itself.
func TestSpecJSONRoundTrip(t *testing.T) {
	s := DefaultSpec()
	s.Width = 0.5
	s.Classes = 3
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Spec
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, s)
	}
}

// TestSpecBuildMatchesBackbone: a SkyNet spec builds exactly the graph
// backbone.SkyNet builds from the same seed and configuration — node for node,
// and every parameter and running statistic bit for bit — which is what lets
// skynet-train train the network its checkpoint records.
func TestSpecBuildMatchesBackbone(t *testing.T) {
	for _, v := range []backbone.SkyNetVariant{backbone.VariantA, backbone.VariantB, backbone.VariantC} {
		for _, relu6 := range []bool{false, true} {
			s := Spec{Family: "skynet", Variant: v.String(), Width: 0.25, InC: 3,
				HeadChannels: 10, ReLU6: relu6, Seed: 7}
			g, head, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: relu6}
			want := backbone.SkyNet(rand.New(rand.NewSource(7)), cfg, v)
			if head == nil || head.Classes != 0 {
				t.Fatalf("%s relu6=%v: want the classless SkyNet head, got %+v", v, relu6, head)
			}
			if len(g.Nodes) != len(want.Nodes) {
				t.Fatalf("%s relu6=%v: %d nodes, backbone.SkyNet has %d", v, relu6, len(g.Nodes), len(want.Nodes))
			}
			for i, n := range g.Nodes {
				w := want.Nodes[i]
				if n.Layer.Name() != w.Layer.Name() || !reflect.DeepEqual(n.Inputs, w.Inputs) {
					t.Fatalf("%s relu6=%v: node %d is %s%v, backbone.SkyNet's is %s%v", v, relu6, i, n.Layer.Name(), n.Inputs, w.Layer.Name(), w.Inputs)
				}
			}
			var got, exp bytes.Buffer
			if err := g.Save(&got); err != nil {
				t.Fatal(err)
			}
			if err := want.Save(&exp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), exp.Bytes()) {
				t.Fatalf("%s relu6=%v: parameters differ from backbone.SkyNet's", v, relu6)
			}
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	s := DefaultSpec()
	s.Width = 0.125
	g, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the weights so defaults cannot accidentally pass.
	rng := rand.New(rand.NewSource(9))
	for _, p := range g.Params() {
		p.W.RandNormal(rng, 0, 0.1)
	}
	x := tensor.New(1, 3, 16, 16)
	x.RandUniform(rng, 0, 1)
	want := g.Forward(x, false).Clone()

	if err := SaveCheckpoint(path, s, g); err != nil {
		t.Fatal(err)
	}
	s2, g2, head2, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s2, s) || head2 == nil {
		t.Fatalf("checkpoint spec mismatch: %+v", s2)
	}
	got := g2.Forward(x, false)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatal("restored model output differs")
		}
	}
}

// TestSaveCheckpointKeepsTheOpenOldFile: a save replaces the file at its path
// whole, never rewriting it in place, so a reader that opened the old
// checkpoint before the save (a hot-swap reload mid-read) reads the old bytes
// to the end, the path then holds the new checkpoint, and no temporary file
// is left beside it.
func TestSaveCheckpointKeepsTheOpenOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	s := DefaultSpec()
	s.Width = 0.125
	g, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, s, g); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(3))
	for _, p := range g.Params() {
		p.W.RandNormal(rng, 0, 0.1)
	}
	if err := SaveCheckpoint(path, s, g); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("the open old checkpoint read %d bytes after the save, not its own %d", len(got), len(old))
	}
	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(now, old) {
		t.Fatal("the save left the old checkpoint at its path")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %v (%v), want the checkpoint alone", entries, err)
	}
}

func TestLoadCheckpointMissingFile(t *testing.T) {
	if _, _, _, err := LoadCheckpoint("/nonexistent/path.ckpt"); err == nil {
		t.Fatal("missing file must error")
	}
}
