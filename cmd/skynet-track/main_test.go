package main

import (
	"strings"
	"testing"
)

// TestRunRefusesBadFlags: a flag value the tracker cannot run is an error
// naming the flag, printed before any training, not a panic or a render loop
// that never ends.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-length", "2", "-render"}, "-length 2"},
		{[]string{"-length", "1"}, "-length 1"},
		{[]string{"-eval", "0", "-render"}, "-eval 0"},
		{[]string{"-train", "0"}, "-train 0"},
		{[]string{"-backbone", "vgg"}, `-backbone "vgg"`},
	} {
		var out strings.Builder
		err := run(c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%v: err %v, want one naming %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Fatalf("%v: printed before refusing:\n%s", c.args, out.String())
		}
	}
}
