package skynet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocumentsNameWhatExists: every back-ticked repository path and every
// back-ticked `pkg.Identifier` (or `pkg.Type.Member`) in DESIGN.md,
// EXPERIMENTS.md and README.md names something in this tree. A path is a
// word that starts with one of the tree's top-level directories, or a bare
// file name with a source or document extension, which must be some file's
// base name; a `:line` suffix is ignored. An identifier is a word whose
// first part is the name of one of the tree's packages; it must be declared
// there (test files included), and a member must be a method or field of
// the type it follows. What was deleted is named in CHANGES.md, not here.
func TestDocumentsNameWhatExists(t *testing.T) {
	bases := map[string]bool{}
	decls := map[string]*pkgDecls{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		bases[d.Name()] = true
		if filepath.Ext(path) == ".go" && !strings.Contains(path, "testdata") {
			return addDecls(decls, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`([^`\n]+)`")
	ident := regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	lineSuffix := regexp.MustCompile(`:[0-9][0-9,–-]*$`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(b), "\n") {
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				for _, w := range strings.Fields(m[1]) {
					w = lineSuffix.ReplaceAllString(strings.TrimRight(w, ",;.)"), "")
					if why := resolve(w, bases, decls, ident); why != "" {
						t.Errorf("%s:%d: `%s`: %s", doc, n+1, w, why)
					}
				}
			}
		}
	}
}

var topDirs = regexp.MustCompile(`^(\./)?(internal|cmd|bench|examples|renders)/`)
var fileExt = regexp.MustCompile(`^[\w.-]+\.(go|s|md|json|txt|sh|ppm)$`)

// metricKey matches the second half of a bench metric name such as
// `nn.forward_ms`, which names a reading, not a declaration.
var metricKey = regexp.MustCompile(`^[a-z0-9]+(_[a-z0-9]+)+$`)

// resolve returns why a back-ticked word names nothing in the tree, or ""
// when it resolves or is neither a path nor a package identifier.
func resolve(w string, bases map[string]bool, decls map[string]*pkgDecls, ident *regexp.Regexp) string {
	switch {
	case topDirs.MatchString(w):
		p := strings.TrimSuffix(strings.TrimSuffix(w, "/..."), "/")
		if strings.Contains(p, "*") {
			if m, _ := filepath.Glob(p); len(m) > 0 {
				return ""
			}
		} else if _, err := os.Stat(p); err == nil {
			return ""
		}
		return "no such path"
	case fileExt.MatchString(w):
		if !bases[w] {
			return "no file of that name"
		}
		return ""
	}
	m := ident.FindStringSubmatch(w)
	if m == nil || decls[m[1]] == nil || metricKey.MatchString(m[2]) {
		return ""
	}
	p := decls[m[1]]
	if !p.top[m[2]] {
		return "package " + m[1] + " declares no " + m[2]
	}
	if m[3] != "" && p.isType[m[2]] && !p.hasMember(m[2], m[3], 0) {
		return m[1] + "." + m[2] + " has no method or field " + m[3]
	}
	return ""
}

// pkgDecls is what one package name declares across the tree.
type pkgDecls struct {
	top, isType map[string]bool
	members     map[string]map[string]bool // type → its methods and fields
	embeds      map[string][]string        // type → the types it embeds
}

func (p *pkgDecls) hasMember(typ, name string, depth int) bool {
	if p.members[typ][name] {
		return true
	}
	for _, e := range p.embeds[typ] {
		if depth < 4 && p.hasMember(e, name, depth+1) {
			return true
		}
	}
	return false
}

func addDecls(decls map[string]*pkgDecls, path string) error {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	name := f.Name.Name
	if name == "main" || strings.HasSuffix(name, "_test") {
		return nil
	}
	p := decls[name]
	if p == nil {
		p = &pkgDecls{top: map[string]bool{}, isType: map[string]bool{},
			members: map[string]map[string]bool{}, embeds: map[string][]string{}}
		decls[name] = p
	}
	member := func(typ, m string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][m] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.top[d.Name.Name] = true
				continue
			}
			if typ := baseTypeName(d.Recv.List[0].Type); typ != "" {
				member(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.top[n.Name] = true
					}
				case *ast.TypeSpec:
					typ := s.Name.Name
					p.top[typ], p.isType[typ] = true, true
					var fields *ast.FieldList
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						if len(fl.Names) == 0 {
							if e := baseTypeName(fl.Type); e != "" {
								member(typ, e)
								p.embeds[typ] = append(p.embeds[typ], e)
							}
						}
						for _, n := range fl.Names {
							member(typ, n.Name)
						}
					}
				}
			}
		}
	}
	return nil
}

// baseTypeName is the name of a receiver or embedded type, without its
// pointer and type arguments; "" for a type of another package.
func baseTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
