package main

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"skynet/internal/modelspec"
)

// TestRunRefusesBadFlags: a calibration size the server cannot run is an
// error naming the flag, printed before anything is served, not a panic in
// the dataset generator or the plan compiler. A non-positive size is a
// refusal of the command line (exit status 2), made before the checkpoint is
// read; a size the model cannot take is the factory's error, from the
// model's own shape inference.
func TestRunRefusesBadFlags(t *testing.T) {
	spec := modelspec.DefaultSpec()
	g, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "c.ckpt")
	if err := modelspec.SaveCheckpoint(ckpt, spec, g); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args  []string
		want  string
		usage bool
	}{
		{[]string{"-imgw", "0"}, "-imgw 0", true},
		{[]string{"-quantize", "-imgh", "0"}, "-imgh 0", true},
		{[]string{"-imgh", "-3"}, "-imgh -3", true},
		{[]string{"-ckpt", ""}, "-ckpt", true},
		{[]string{"-quantize", "-imgw", "7"}, "-imgw 7", false},
	} {
		var out strings.Builder
		err := run(append([]string{"-ckpt", ckpt, "-addr", "127.0.0.1:0"}, c.args...), &out)
		var bad usage
		if err == nil || !strings.Contains(err.Error(), c.want) || errors.As(err, &bad) != c.usage {
			t.Fatalf("%v: err %v (a refusal of the command line: %v), want one naming %q (%v)", c.args, err, errors.As(err, &bad), c.want, c.usage)
		}
		if out.Len() != 0 {
			t.Fatalf("%v: printed before refusing:\n%s", c.args, out.String())
		}
	}
}
