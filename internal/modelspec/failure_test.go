package modelspec

import (
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
