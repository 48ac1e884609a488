package main

import (
	"path/filepath"
	"strings"
	"testing"

	"skynet/internal/modelspec"
)

// TestRunPricesACheckpointAtItsInputChannels: a valid checkpoint of a
// one-channel model is priced at one input channel, not at three.
func TestRunPricesACheckpointAtItsInputChannels(t *testing.T) {
	spec := modelspec.DefaultSpec()
	spec.InC = 1
	g, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gray.ckpt")
	if err := modelspec.SaveCheckpoint(path, spec, g); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-ckpt", path, "-imgh", "48", "-imgw", "96"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"model: skynet C width 0.250", "calibrated estimate: ", "tile-level schedule"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
}
