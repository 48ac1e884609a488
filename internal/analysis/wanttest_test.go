package analysis

// The golden-file harness for checker testdata packages. Each package
// under testdata/src/<name> is parsed and type-checked for real, every
// checker runs over it, and the diagnostics are matched line-by-line
// against `// want `+"`regex`"+`` expectation comments in the source:
// an expectation with no matching diagnostic fails, and so does a
// diagnostic with no matching expectation. This proves each checker both
// fires on its failure modes and stays quiet on the sanctioned idioms.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// wantRe extracts expectation regexes; the pattern may appear anywhere in
// a comment so malformed-waiver lines can carry expectations too.
var wantRe = regexp.MustCompile("want `([^`]+)`")

var (
	sharedLoaderOnce sync.Once
	sharedLoader     *Loader
)

// testLoader shares one loader (and its export-data cache) across tests.
func testLoader() *Loader {
	sharedLoaderOnce.Do(func() { sharedLoader = NewLoader("") })
	return sharedLoader
}

// LoadDir parses and type-checks every .go file directly inside dir as a
// single package. It is the entry point for checker testdata packages,
// which live under testdata/ precisely so the go tool ignores them.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(files)
	return l.check("testdata/"+filepath.Base(dir), dir, files)
}

// runWantTest loads testdata/src/<name>, runs every checker, and matches
// findings against the want comments.
func runWantTest(t *testing.T, name string) {
	t.Helper()
	pkg, err := testLoader().LoadDir("testdata/src/" + name)
	if err != nil {
		t.Fatalf("loading testdata package %s: %v", name, err)
	}

	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := map[string][]*want{} // "file:line" -> expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Slash)
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}

	for _, d := range Run([]*Package{pkg}, All) {
		rendered := fmt.Sprintf("[%s] %s", d.Checker, d.Message)
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		matched := false
		for _, w := range wants[key] {
			if w.re.MatchString(rendered) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic %s:%d: %s", d.File, d.Line, rendered)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected a diagnostic matching %q, got none", key, w.re)
			}
		}
	}
}

func TestGlobalRandTestdata(t *testing.T) { runWantTest(t, "globalrand") }
func TestMapOrderTestdata(t *testing.T)   { runWantTest(t, "maporder") }
func TestFloatEqTestdata(t *testing.T)    { runWantTest(t, "floateq") }
func TestHotAllocTestdata(t *testing.T)   { runWantTest(t, "hotalloc") }
func TestHotCallTestdata(t *testing.T)    { runWantTest(t, "hotcall") }
func TestLockHeldTestdata(t *testing.T)   { runWantTest(t, "lockheld") }
func TestCtxFlowTestdata(t *testing.T)    { runWantTest(t, "ctxflow") }
func TestErrDropTestdata(t *testing.T)    { runWantTest(t, "errdrop") }
func TestNolintTestdata(t *testing.T)     { runWantTest(t, "nolint") }
func TestPkgDocTestdata(t *testing.T)     { runWantTest(t, "pkgdoc") }
