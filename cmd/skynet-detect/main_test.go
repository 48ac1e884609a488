package main

import (
	"path/filepath"
	"strings"
	"testing"

	"skynet/internal/modelspec"
)

// TestRunRefusesBadFlags: a scene count or image size the detector cannot
// run is an error naming the flag, printed before any scene, not a panic or
// an R_IoU of NaN over no scenes.
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
		args []string
		want string
	}{
		{[]string{"-n", "-1"}, "-n -1"},
		{[]string{"-n", "0"}, "-n 0"},
		{[]string{"-imgw", "0"}, "-imgw 0"},
		{[]string{"-imgh", "-2"}, "-imgh -2"},
		{[]string{"-quantize", "-calib", "0"}, "-calib 0"},
		{[]string{"-imgw", "4", "-imgh", "4"}, "-imgw 4 -imgh 4"},
	} {
		var out strings.Builder
		err := run(append([]string{"-ckpt", ckpt}, c.args...), &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%v: err %v, want one naming %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Fatalf("%v: printed before refusing:\n%s", c.args, out.String())
		}
	}
	var out strings.Builder
	if err := run([]string{"-ckpt", ckpt, "-n", "1"}, &out); err != nil || !strings.Contains(out.String(), "R_IoU over 1 scenes: ") {
		t.Fatalf("-n 1: err %v, printed\n%s", err, out.String())
	}
}
