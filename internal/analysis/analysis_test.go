package analysis

// Framework-level tests: the whole real tree must lint clean (the same
// gate `make lint` enforces in CI), and the two output formats must
// render findings faithfully.

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRealTreeClean runs every checker over every package of the module
// and demands zero unwaived diagnostics — the acceptance gate that keeps
// the determinism, float-hygiene and hot-path disciplines enforced on the
// actual code, not just on testdata.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := testLoader().Load("skynet/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages, expected the whole module", len(pkgs))
	}
	diags := Run(pkgs, All)
	for _, d := range diags {
		t.Errorf("unwaived finding: %s", d.String())
	}
}

// waiverCeiling is the most //skynet:nolint waivers the tree may carry,
// counted the way `make loc` counts them: lines holding the directive
// followed by a checker name (waiverLine, the form nolint.go parses; a doc
// sentence naming the directive is not a waiver) in Go files under
// internal/ (this package and testdata aside), cmd/, examples/ and the
// module root. A change that removes a waiver lowers it; one that needs a
// new waiver has to raise it in the same diff, where a reviewer sees it.
const waiverCeiling = 9

var waiverLine = regexp.MustCompile(`//skynet:nolint [a-z]`)

func TestWaiverCountWithinCeiling(t *testing.T) {
	root := filepath.Join("..", "..")
	files, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && (d.Name() == "testdata" || path == filepath.Join(root, "internal", "analysis")) {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			if waiverLine.MatchString(line) {
				count++
			}
		}
	}
	if count > waiverCeiling {
		t.Fatalf("%d //skynet:nolint waivers in the tree, ceiling %d: remove one, or raise waiverCeiling and say why", count, waiverCeiling)
	}
	if count < waiverCeiling {
		t.Fatalf("%d //skynet:nolint waivers in the tree, below the ceiling of %d: lower waiverCeiling so the drop cannot grow back", count, waiverCeiling)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "internal/pso/pso.go", Line: 108, Col: 2,
		Checker: "maporder", Message: "map iteration order is random"}
	want := "internal/pso/pso.go:108: [maporder] map iteration order is random"
	if got := d.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestWriteTextRelativizesPaths(t *testing.T) {
	var buf bytes.Buffer
	diags := []Diagnostic{
		{File: "/repo/pkg/a.go", Line: 3, Checker: "floateq", Message: "m1"},
		{File: "/elsewhere/b.go", Line: 7, Checker: "errdrop", Message: "m2"},
	}
	if err := WriteText(&buf, "/repo", diags); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "pkg/a.go:3: [floateq] m1\n") {
		t.Errorf("in-base path not relativized:\n%s", out)
	}
	if !strings.Contains(out, "/elsewhere/b.go:7: [errdrop] m2\n") {
		t.Errorf("out-of-base path rewritten:\n%s", out)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := []Diagnostic{{File: "x.go", Line: 1, Col: 2, Checker: "globalrand", Message: "msg"}}
	if err := WriteJSON(&buf, "", in); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var out []Diagnostic
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(out) != 1 || out[0] != in[0] {
		t.Fatalf("round-trip = %+v, want %+v", out, in)
	}
}

func TestByName(t *testing.T) {
	for _, c := range All {
		if ByName(c.Name) != c {
			t.Errorf("ByName(%q) did not return the registered checker", c.Name)
		}
	}
	if ByName("nosuch") != nil {
		t.Errorf("ByName(nosuch) = non-nil")
	}
}
