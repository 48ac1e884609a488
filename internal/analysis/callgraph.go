package analysis

// Module-wide call graph + dataflow layer. The per-package checkers of
// PR 4 are intraprocedural: hotalloc only sees a function's own body, so
// an allocation two calls below a //skynet:hotpath root escapes the ban,
// and nothing can reason about what a callee does while the caller holds
// a lock. This file closes that gap with a call graph over every package
// of a lint run, resolved against go/types:
//
//   - static calls (`f(x)`, `pkg.F(x)`) become EdgeStatic edges;
//   - method calls devirtualize to EdgeStatic when the receiver's
//     concrete type is known to the type checker;
//   - interface method calls fan out conservatively (EdgeInterface) to
//     every in-module concrete type the type checker proves implements
//     the interface — a superset of the dynamic callees;
//   - calls through package-level function variables (the tensor
//     micro-kernel dispatch seam) resolve by dataflow (EdgeFuncVar) to
//     every function the module ever assigns to that variable;
//   - all other indirect calls (parameters, fields, locals of function
//     type) become an unresolved edge (EdgeDynamic, empty callee) so a
//     checker can at least see that *something* unknown is called.
//
// Soundness caveats (documented in DESIGN.md §14): interface fan-out only
// sees in-module implementations, function-variable dataflow only sees
// direct `v = f` assignments (a value that flows through a local or a
// return escapes it), and unresolved dynamic edges carry no callee. The
// graph is therefore a sound overapproximation for static and devirtual
// call structure and a best-effort one for indirect calls; checkers that
// consume it say which edge kinds they trust.
//
// Nodes are keyed by a stable "pkgpath.Recv.Name" string rather than by
// *types.Func identity: a package loaded from source and the same package
// seen through export data by an importer produce distinct Func objects,
// and the string key unifies them.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// EdgeKind classifies how a call edge was resolved.
type EdgeKind int

const (
	// EdgeStatic is a direct call to a known function or a method call
	// devirtualized through a concrete receiver type.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is a conservative fan-out edge from an interface
	// method call to one in-module type implementing the interface.
	EdgeInterface
	// EdgeFuncVar is a dataflow edge from a call through a package-level
	// function variable to one function assigned to that variable.
	EdgeFuncVar
	// EdgeDynamic is an unresolved indirect call (function value from a
	// parameter, field or local); Callee is empty.
	EdgeDynamic
)

// String names the edge kind for graph snapshots and diagnostics.
func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeInterface:
		return "interface"
	case EdgeFuncVar:
		return "funcvar"
	case EdgeDynamic:
		return "dynamic"
	}
	return "?"
}

// CallEdge is one outgoing call from a node.
type CallEdge struct {
	Callee string // node key; "" for EdgeDynamic
	Kind   EdgeKind
	Pos    token.Pos
	Go     bool // the call is the operand of a go statement
}

// blockInfo records why a function is considered blocking.
type blockInfo struct {
	pos  token.Pos
	what string // e.g. "channel receive", "sync.WaitGroup.Wait"
}

// Node is one function in the call graph.
type Node struct {
	Key   string
	Fn    *types.Func   // the defining object (in-module nodes only)
	Decl  *ast.FuncDecl // nil for body-less (assembly) declarations
	Pkg   *Package
	Hot   bool // carries the //skynet:hotpath directive
	Calls []CallEdge

	// directBlock is the first lexically-blocking operation in the body
	// (channel op, defaultless select, sync.WaitGroup.Wait, sync.Cond.Wait,
	// HTTP response write), if any. Goroutine and closure bodies are
	// excluded: their blocking happens on another stack.
	directBlock *blockInfo
}

// CallGraph is the module-wide graph. Only functions declared in the
// loaded packages have nodes; edges may name out-of-module callees by key
// but those keys resolve to nil nodes.
type CallGraph struct {
	nodes map[string]*Node
	keys  []string // sorted node keys, the deterministic iteration order
}

// NodeByKey returns the node for key, nil if the function is not declared
// in the loaded packages.
func (g *CallGraph) NodeByKey(key string) *Node { return g.nodes[key] }

// Keys returns the sorted node keys.
func (g *CallGraph) Keys() []string { return g.keys }

// FuncKey builds the stable node key for a function object:
// "pkgpath.Name" for package functions, "pkgpath.Recv.Name" for methods
// (pointer receivers are stripped; generic instantiations collapse to
// their origin).
func FuncKey(fn *types.Func) string {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + "." + fn.Name()
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return pkg + "." + t.Obj().Name() + "." + fn.Name()
	case *types.Interface:
		return pkg + ".<interface>." + fn.Name()
	}
	return pkg + "." + t.String() + "." + fn.Name()
}

// shortKey trims the module path prefix off a node key for human-facing
// call chains: "skynet/internal/nn.Conv2D.Forward" → "nn.Conv2D.Forward".
func shortKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// buildCallGraph constructs the graph over the packages. Iteration is in
// package order (Load returns them sorted), file order, then syntactic
// order, so the graph — and everything derived from it — is deterministic.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{nodes: map[string]*Node{}}

	// Pass 1: nodes for every declared function, and the in-module named
	// types (for interface fan-out).
	type namedType struct {
		name string
		typ  types.Type
		pkg  *Package
	}
	var named []namedType
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
					if !ok {
						continue
					}
					key := FuncKey(fn)
					node := &Node{Key: key, Fn: fn, Pkg: pkg, Hot: isHotpath(decl)}
					if decl.Body != nil {
						node.Decl = decl
					}
					g.nodes[key] = node
				case *ast.GenDecl:
					if decl.Tok != token.TYPE {
						continue
					}
					for _, spec := range decl.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
						if !ok || obj.IsAlias() {
							continue
						}
						named = append(named, namedType{name: obj.Name(), typ: obj.Type(), pkg: pkg})
					}
				}
			}
		}
	}

	// funcVarTargets: package-level function-variable object -> the
	// functions the module assigns to it, discovered by scanning every
	// `var v = f` spec and `v = f` assignment whose RHS names a function
	// directly. This is the dataflow that resolves the tensor kernel
	// dispatch seam (gemmMicro/i8Micro).
	funcVarTargets := map[*types.Var][]string{}
	recordTarget := func(pkg *Package, lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		v, ok := pkg.Info.Defs[id].(*types.Var)
		if !ok {
			if v, ok = pkg.Info.Uses[id].(*types.Var); !ok {
				return
			}
		}
		if v.Parent() != v.Pkg().Scope() { // package-level variables only
			return
		}
		if fn := staticCallee(pkg.Info, rhs); fn != nil {
			funcVarTargets[v] = append(funcVarTargets[v], FuncKey(fn))
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ValueSpec:
					for i, name := range n.Names {
						if i < len(n.Values) {
							recordTarget(pkg, name, n.Values[i])
						}
					}
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i := range n.Lhs {
							recordTarget(pkg, n.Lhs[i], n.Rhs[i])
						}
					}
				}
				return true
			})
		}
	}

	// implementers resolves an interface method to every in-module
	// concrete method that can stand behind it, caching per (interface,
	// method) pair.
	implCache := map[*types.Func][]string{}
	implementers := func(iface *types.Interface, m *types.Func) []string {
		if keys, ok := implCache[m]; ok {
			return keys
		}
		var keys []string
		for _, nt := range named {
			if types.IsInterface(nt.typ) {
				continue
			}
			recv := types.NewPointer(nt.typ)
			if !types.Implements(recv, iface) && !types.Implements(nt.typ, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				keys = append(keys, FuncKey(fn))
			}
		}
		implCache[m] = keys
		return keys
	}

	// Pass 2: edges and blocking summaries.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := g.nodes[FuncKey(fn)]
				if node == nil {
					continue
				}
				addEdges(g, node, pkg, fd.Body, funcVarTargets, implementers)
				node.directBlock = firstBlockingOp(pkg, fd.Body)
			}
		}
	}

	g.keys = make([]string, 0, len(g.nodes))
	for k := range g.nodes {
		g.keys = append(g.keys, k)
	}
	sort.Strings(g.keys)
	return g
}

// addEdges walks body and appends one CallEdge per call expression to
// node.Calls. Function-literal bodies are attributed to the enclosing
// declaration: a closure's calls do execute on the enclosing path (or a
// path it spawns), and hotalloc separately bans the closure header itself
// on hot paths.
func addEdges(g *CallGraph, node *Node, pkg *Package, body ast.Node,
	funcVarTargets map[*types.Var][]string,
	implementers func(*types.Interface, *types.Func) []string) {

	info := pkg.Info
	var walk func(n ast.Node, inGo bool)
	walk = func(n ast.Node, inGo bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				walk(gs.Call, true)
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Conversions and builtins are not calls.
			if _, isConv := info.Types[call.Fun]; isConv && info.Types[call.Fun].IsType() {
				return true
			}
			if builtinName(info, call) != "" {
				return true
			}
			edgeFor(g, node, pkg, call, inGo, funcVarTargets, implementers)
			return true
		})
	}
	walk(body, false)
}

// edgeFor resolves one call expression into edges on node.
func edgeFor(g *CallGraph, node *Node, pkg *Package, call *ast.CallExpr, inGo bool,
	funcVarTargets map[*types.Var][]string,
	implementers func(*types.Interface, *types.Func) []string) {

	info := pkg.Info
	fun := ast.Unparen(call.Fun)

	// Interface method call?
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
				m := s.Obj().(*types.Func)
				for _, callee := range implementers(iface, m) {
					node.Calls = append(node.Calls, CallEdge{Callee: callee, Kind: EdgeInterface, Pos: call.Pos(), Go: inGo})
				}
				if len(implementers(iface, m)) == 0 {
					// No in-module implementation: keep the interface call
					// visible as an unresolved edge.
					node.Calls = append(node.Calls, CallEdge{Kind: EdgeDynamic, Pos: call.Pos(), Go: inGo})
				}
				return
			}
		}
	}

	// Static call (package function, or method devirtualized through its
	// concrete receiver)?
	if fn := staticCallee(info, fun); fn != nil {
		node.Calls = append(node.Calls, CallEdge{Callee: FuncKey(fn), Kind: EdgeStatic, Pos: call.Pos(), Go: inGo})
		return
	}

	// Call through a package-level function variable with known targets?
	if id, ok := fun.(*ast.Ident); ok {
		if v, ok := info.Uses[id].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			if targets := funcVarTargets[v]; len(targets) > 0 {
				seen := map[string]bool{}
				for _, t := range targets {
					if !seen[t] {
						seen[t] = true
						node.Calls = append(node.Calls, CallEdge{Callee: t, Kind: EdgeFuncVar, Pos: call.Pos(), Go: inGo})
					}
				}
				return
			}
		}
	}

	// Anything else (parameter, field, local closure, method value):
	// unresolved.
	node.Calls = append(node.Calls, CallEdge{Kind: EdgeDynamic, Pos: call.Pos(), Go: inGo})
}

// staticCallee resolves expr to the function object it directly names:
// an identifier or selector whose use is a *types.Func (plain function,
// package-qualified function, or method with a concrete receiver). It
// returns nil for interface method selections so the caller can fan those
// out instead.
func staticCallee(info *types.Info, expr ast.Expr) *types.Func {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if s := info.Selections[e]; s != nil {
			if s.Kind() != types.MethodVal {
				return nil
			}
			if _, ok := s.Recv().Underlying().(*types.Interface); ok {
				return nil
			}
			if fn, ok := s.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
