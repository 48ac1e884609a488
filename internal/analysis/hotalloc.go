package analysis

// hotalloc enforces the zero-allocation contract on functions annotated
//
//	//skynet:hotpath
//
// in their doc comment: the GEMM micro/macro-kernels and packing
// routines, the steady-state convolution forward kernels, and the
// pipeline executor's stage step. PR 1 established (and tests
// with testing.AllocsPerRun) that these paths allocate nothing once warm;
// this checker catches the regression at review time instead of waiting
// for an alloc-count test to trip.
//
// Inside an annotated function the checker flags the constructs that heap-
// allocate on every execution: make, new, append, function literals
// (closure headers escape), map and slice composite literals, and
// address-taken composite literals (`&T{...}`). A plain struct or array
// composite *value* (e.g. a token sent by value over a channel, a
// fixed-size accumulator tile) stays on the stack and is allowed.

import (
	"go/ast"
	"go/types"
)

const hotpathDirective = "//skynet:hotpath"

// HotAlloc flags allocations inside //skynet:hotpath functions.
var HotAlloc = &Checker{
	Name: "hotalloc",
	Doc:  "allocation (make/new/append/closure/escaping composite literal) inside a //skynet:hotpath function",
	Run:  runHotAlloc,
}

func runHotAlloc(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !isHotpath(fd) {
				continue
			}
			if fd.Body == nil {
				// Assembly-backed declaration (the GEMM micro-kernels in
				// internal/tensor). The annotation is documentation here —
				// hand-written assembly cannot touch the Go heap — and the
				// contract is enforced on these paths by the package's
				// AllocsPerRun tests, so there is nothing to inspect.
				continue
			}
			checkHotBody(p, fd)
		}
	}
}

// isHotpath reports whether the function's doc comment carries the
// //skynet:hotpath directive.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathDirective {
			return true
		}
	}
	return false
}

func checkHotBody(p *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	reportHotAllocs(p, fd, func(n ast.Node, what string) {
		p.Reportf(n.Pos(), "%s in hotpath function %s", what, name)
	})
}

// reportHotAllocs walks fd's body and invokes report for every construct
// that heap-allocates on each execution, phrased as "<construct>
// allocates"/"escapes". Shared by hotalloc (annotated functions) and
// hotcall (functions reached transitively from annotated roots).
func reportHotAllocs(p *Pass, fd *ast.FuncDecl, report func(n ast.Node, what string)) {
	info := p.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n, "closure literal allocates")
			return false // inner allocations belong to the closure finding
		case *ast.CallExpr:
			if b := builtinName(info, n); b == "make" || b == "new" || b == "append" {
				report(n, b+" allocates")
			}
		case *ast.UnaryExpr:
			if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && n.Op.String() == "&" {
				report(cl, "address-taken composite literal escapes")
				return false
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				report(n, "slice literal allocates")
			case *types.Map:
				report(n, "map literal allocates")
			}
		}
		return true
	})
}

func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
