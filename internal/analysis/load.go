package analysis

// This file loads and type-checks the packages a lint run inspects. It
// stays on the standard library by letting the go tool do the heavy
// lifting: `go list -export` compiles each dependency and reports the
// path of its export data, and go/importer's gc importer reads that data
// through a lookup function. Only the packages actually being linted are
// parsed from source; everything they import — stdlib included — comes
// from compiled export data, which is both fast and immune to cgo and
// build-constraint headaches a source importer would hit.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for checking.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module.
type Loader struct {
	// Dir is the directory the go tool runs in (any directory inside the
	// module). Empty means the current directory.
	Dir string

	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	imp     types.Importer
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// NewLoader returns a loader rooted at dir (empty for the current
// directory).
func NewLoader(dir string) *Loader {
	return &Loader{
		Dir:     dir,
		fset:    token.NewFileSet(),
		exports: map[string]string{},
	}
}

// goList runs `go list -export -json` over the patterns and decodes the
// package stream.
func (l *Loader) goList(extraFlags []string, patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-json"}, extraFlags...)
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// lookupExport resolves an import path to an open export-data file,
// shelling out for paths (typically stdlib) not seen in the initial list.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		pkgs, err := l.goList(nil, path)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Export != "" {
				l.exports[p.ImportPath] = p.Export
			}
		}
		file = l.exports[path]
	}
	if file == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

func (l *Loader) importerInstance() types.Importer {
	if l.imp == nil {
		l.imp = importer.ForCompiler(l.fset, "gc", l.lookupExport)
	}
	return l.imp
}

// Load lists the packages matching the patterns, records export data for
// them and their dependencies, and parses + type-checks every matched
// non-standard package from source. Test files are not loaded: the
// checkers govern library code, and several of them explicitly exempt
// tests.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := l.goList([]string{"-deps"}, patterns...)
	if err != nil {
		return nil, err
	}
	var targets []*listedPackage
	for _, p := range listed {
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		files := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, f)
		}
		pkg, err := l.check(t.ImportPath, t.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
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

// check parses the files and type-checks them as one package.
func (l *Loader) check(path, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l.importerInstance()}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}
