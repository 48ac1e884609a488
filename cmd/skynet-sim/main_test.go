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
	for _, want := range []string{"model: skynet C width 0.250", "accelerator: ", "tile-level schedule"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunRefusesBadFlags: a bit width outside 1..32, or an input the network
// cannot take, is an error naming the value, not a panic or a priced
// nonsense timeline.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-w", "0", "-fm", "0"}, "-w 0"},
		{[]string{"-w", "-3", "-fm", "9"}, "-w -3"},
		{[]string{"-fm", "33"}, "-fm 33"},
		{[]string{"-imgh", "4", "-imgw", "4"}, "input [3 4 4]"},
	} {
		var out strings.Builder
		err := run(c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%v: err %v, want one naming %q; printed\n%s", c.args, err, c.want, out.String())
		}
		if out.Len() != 0 {
			t.Fatalf("%v: printed a report before refusing:\n%s", c.args, out.String())
		}
	}
}
