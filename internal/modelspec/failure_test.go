package modelspec

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"
)

// Failure injection: persistence must reject corrupted artifacts with
// errors, never panics or silently wrong models.

func TestLoadCheckpointCorruptedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(path, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("corrupted checkpoint must error")
	}
}

func TestLoadCheckpointTruncated(t *testing.T) {
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
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("truncated checkpoint must error")
	}
}

func TestLoadCheckpointBadSpecJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(checkpoint{Format: checkpointFormat, SpecJSON: []byte("{nope")}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("a checkpoint whose spec is bad JSON must error")
	}
}

// encodeCheckpoint returns the bytes of a weightless checkpoint file whose
// embedded spec is specJSON.
func encodeCheckpoint(t testing.TB, specJSON []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(checkpoint{Format: checkpointFormat, SpecJSON: specJSON}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestLoadCheckpointRejectsOutOfRangeSpec: a checkpoint whose spec asks for
// an absurd network — a width, channel count, head or class count no builder
// can allocate — is refused with an error before anything is built.
func TestLoadCheckpointRejectsOutOfRangeSpec(t *testing.T) {
	dir := t.TempDir()
	for _, spec := range []string{
		`{"family":"skynet","variant":"C","width":1e12,"in_channels":3,"head_channels":10}`,
		`{"family":"skynet","variant":"C","width":-1,"in_channels":3,"head_channels":10}`,
		`{"family":"skynet","variant":"C","width":0.25,"in_channels":1000000000,"head_channels":10}`,
		`{"family":"skynet","variant":"C","width":0.25,"in_channels":3,"head_channels":-5}`,
		`{"family":"resnet18","width":0.25,"in_channels":3,"classes":1000000000}`,
		`{"family":"search","bundle":4,"channels":[8,1099511627776],"in_channels":3,"head_channels":10}`,
		`{"family":"search","bundle":4,"channels":[8,0,16],"in_channels":3,"head_channels":10}`,
	} {
		path := filepath.Join(dir, "hostile.ckpt")
		if err := os.WriteFile(path, encodeCheckpoint(t, []byte(spec)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := LoadCheckpoint(path); err == nil {
			t.Errorf("spec %s loaded", spec)
		}
	}
}

// FuzzLoadCheckpoint: whatever the bytes of a checkpoint file, the loader
// returns an error or a model — it never panics. The seeds are a valid small
// checkpoint, that checkpoint cut short, and one whose spec asks for width
// 1e12.
func FuzzLoadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	s := DefaultSpec()
	s.Width = 0.125
	g, _, err := s.Build()
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, "seed.ckpt")
	if err := SaveCheckpoint(path, s, g); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add(encodeCheckpoint(f, []byte(`{"family":"skynet","variant":"C","width":1e12,"in_channels":3,"head_channels":10}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, g, _, err := LoadCheckpoint(path); err == nil && g == nil {
			t.Fatal("no error and no graph")
		}
	})
}

func TestCheckpointSpecWeightMismatch(t *testing.T) {
	// A checkpoint whose spec was tampered with (different width) must be
	// rejected at weight-restore time rather than loading wrong shapes.
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	s := DefaultSpec()
	s.Width = 0.125
	g, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	tampered := s
	tampered.Width = 0.5 // wrong architecture for these weights
	if err := SaveCheckpoint(path, tampered, g); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("spec/weight mismatch must error")
	}
}
