package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc enforces the zero-allocation contract on functions annotated
// //asgd:hotpath — the steppers, run kernels, simulator workers and
// machine step whose steady-state allocation the AllocsPerRun tests pin
// at zero. The tests catch a regression only on the configurations they
// run; the analyzer catches the construct itself, in every
// configuration, at vet time.
//
// Flagged inside an annotated function:
//
//   - a func literal that captures variables (each call heap-allocates
//     the closure; capture-free literals are static and pass)
//   - a concrete value converted to an interface at a call argument or
//     assignment (boxing allocates). Constant arguments are exempt (the
//     compiler materializes them statically), as is everything inside a
//     return statement or a panic call — the cold error exits of a hot
//     function
//   - append whose destination is a slice local to the function, or
//     whose result is assigned to a different slice than it appends to
//     (a fresh backing array every call; amortized append into a reused
//     field or parameter passes — that is the AllocsPerRun steady state)
//   - map literals and make(map...) (maps always heap-allocate)
//
// The annotation is deliberately per function, not per package: helpers
// a hot function calls are checked only if they are annotated too.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocating constructs inside //asgd:hotpath functions",
	Run:  runHotAlloc,
}

// hotpathDirective is the annotation marking a function as an
// allocation-free hot path.
const hotpathDirective = "//asgd:hotpath"

// isHotpath reports whether fd carries the hotpath annotation.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

func runHotAlloc(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			checkHotFunc(p, fd)
		}
	}
}

func checkHotFunc(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		if coldPath(info, stack) {
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if capt := capturedVar(info, fd, n); capt != "" {
				p.Reportf(n.Pos(), "func literal captures %s and allocates a closure per call on a hot path", capt)
			}
			return false // the literal's own body runs later; not this hot path
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					p.Reportf(n.Pos(), "map literal allocates on a hot path")
				}
			}
		case *ast.CallExpr:
			checkHotCall(p, fd, n, stack)
		case *ast.AssignStmt:
			checkHotAssign(p, n)
		}
		return true
	})
}

// coldPath reports whether the ancestor stack passes through a return
// statement or a panic call — the error exits a hot loop takes only
// when already broken, where boxing an operand into an error or a panic
// argument is fine.
func coldPath(info *types.Info, stack []ast.Node) bool {
	for _, a := range stack {
		switch a := a.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(a.Fun).(*ast.Ident); ok && isBuiltin(info, id, "panic") {
				return true
			}
		}
	}
	return false
}

// capturedVar returns the name of a variable the func literal captures
// from the enclosing function ("" if capture-free). Captures are
// identifiers resolving to non-field variables declared inside the
// enclosing function but outside the literal.
func capturedVar(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			name = v.Name()
		}
		return true
	})
	return name
}

// checkHotCall flags allocation at call sites: make(map...), appends
// into non-reused destinations, and concrete arguments boxed into
// interface parameters.
func checkHotCall(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node) {
	info := p.Pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch {
		case isBuiltin(info, id, "make"):
			if len(call.Args) > 0 {
				if tv, ok := info.Types[call.Args[0]]; ok && tv.Type != nil {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						p.Reportf(call.Pos(), "make(map) allocates on a hot path")
					}
				}
			}
			return
		case isBuiltin(info, id, "append"):
			checkHotAppend(p, fd, call, stack)
			return
		case isBuiltin(info, id, "panic"):
			return
		}
	}
	// Interface boxing at argument positions.
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || tv.IsType() { // conversions T(x) to a concrete type do not box
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // spread of an existing slice: no per-element boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.Type == nil || at.IsNil() || at.Value != nil {
			continue // untyped nil and constants materialize statically
		}
		if types.IsInterface(at.Type.Underlying()) {
			continue
		}
		p.Reportf(arg.Pos(), "concrete %s converted to interface %s allocates on a hot path", at.Type, pt)
	}
}

// checkHotAppend flags appends that cannot amortize: destination slices
// declared inside the function itself (fresh every call), and results
// assigned somewhere other than the appended slice.
func checkHotAppend(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node) {
	info := p.Pkg.Info
	if len(call.Args) == 0 {
		return
	}
	dest := rootVar(info, call.Args[0])
	if dest != nil && !dest.IsField() && dest.Pos() >= fd.Body.Pos() && dest.Pos() < fd.End() {
		p.Reportf(call.Pos(), "append to %s, a slice local to this function, allocates a fresh backing array on a hot path; reuse a field or parameter buffer", dest.Name())
		return
	}
	// Result must flow back into the slice it appends to, or the
	// append grows a new backing array every steady-state call.
	if len(stack) == 0 {
		return
	}
	if asn, ok := stack[len(stack)-1].(*ast.AssignStmt); ok && len(asn.Lhs) == len(asn.Rhs) {
		for i, rhs := range asn.Rhs {
			if ast.Unparen(rhs) == call {
				if lhs := rootVar(info, asn.Lhs[i]); lhs != nil && dest != nil && lhs != dest {
					p.Reportf(call.Pos(), "append result assigned to %s but appends to %s; the grown array cannot be reused", lhs.Name(), dest.Name())
				}
			}
		}
	}
}

// checkHotAssign flags concrete-to-interface boxing at assignments.
func checkHotAssign(p *Pass, asn *ast.AssignStmt) {
	info := p.Pkg.Info
	if len(asn.Lhs) != len(asn.Rhs) {
		return
	}
	for i, lhs := range asn.Lhs {
		lt, ok := info.Types[lhs]
		if !ok || lt.Type == nil || !types.IsInterface(lt.Type) {
			continue
		}
		rt, ok := info.Types[asn.Rhs[i]]
		if !ok || rt.Type == nil || rt.IsNil() || rt.Value != nil {
			continue
		}
		if types.IsInterface(rt.Type.Underlying()) {
			continue
		}
		p.Reportf(asn.Rhs[i].Pos(), "concrete %s assigned to interface %s allocates on a hot path", rt.Type, lt.Type)
	}
}

// rootVar resolves an expression to its base variable: x, x.f, x[i]
// and parenthesized forms all resolve to x's (or the field's) object.
func rootVar(info *types.Info, expr ast.Expr) *types.Var {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			v, _ := info.Uses[e].(*types.Var)
			return v
		case *ast.SelectorExpr:
			v, _ := info.Uses[e.Sel].(*types.Var)
			return v
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}
