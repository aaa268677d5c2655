package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Nondet enforces the determinism contract of DESIGN.md §6: inside the
// contract packages, sweep documents and machine trajectories must be a
// pure function of (spec, seed), so wall-clock reads, the global
// math/rand source, and map-iteration order must never feed anything a
// caller can observe.
//
// Flagged inside contract packages:
//
//   - time.Now / time.Since / time.Until — wall-clock reads. The two
//     documented nondeterministic report fields (elapsed /
//     updates_per_sec) carry //asgdvet:allow nondet(...) at their
//     measurement sites.
//   - package-level math/rand (and rand/v2) functions — the global
//     source is seeded per process. Constructing an explicitly seeded
//     generator (rand.New, rand.NewSource, ...) is fine; the repo's own
//     internal/rng is the sanctioned source either way.
//   - ranging over a map while feeding output or serialization: a loop
//     body that prints, encodes, writes, sends, or appends observes the
//     map's random iteration order. The collect-keys-then-sort idiom is
//     recognized (an append-only body followed by a sort.* / slices.*
//     sort call later in the same function passes); purely commutative
//     bodies (counting, summing, map writes) pass.
//
// Contract membership is module-relative (NondetContractPaths,
// NondetContractPrefixes) or opted into per package with
// //asgdvet:contract nondet — the fixture mechanism.
var Nondet = &Analyzer{
	Name: "nondet",
	Doc:  "flags wall-clock, global math/rand and map-order dependence in determinism-contract packages",
	Run:  runNondet,
}

// NondetContractPaths are the module-relative package paths under the
// determinism contract: the sweep engine and the serve document path
// (byte-identical rerun documents), the machine runtime and its
// schedulers (bit-identical trajectories), and the RNG (splittable
// deterministic streams).
var NondetContractPaths = []string{
	"internal/sweep",
	"internal/serve",
	"internal/core",
	"internal/sched",
	"internal/rng",
}

// NondetContractPrefixes extend the contract to package subtrees: every
// example, since the code users copy first must be reproducible.
var NondetContractPrefixes = []string{
	"examples/",
}

// underContract reports whether pkg is bound by the determinism
// contract.
func underContract(p *Pass) bool {
	if p.allows.contracts[p.Analyzer.Name] {
		return true
	}
	rel := p.Pkg.RelPath()
	for _, c := range NondetContractPaths {
		if rel == c {
			return true
		}
	}
	for _, pre := range NondetContractPrefixes {
		if strings.HasPrefix(rel, pre) {
			return true
		}
	}
	return false
}

// randDeterministic lists the math/rand (v1 and v2) package-level names
// that construct explicitly seeded state rather than touching the
// global source.
var randDeterministic = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runNondet(p *Pass) {
	if !underContract(p) {
		return
	}
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					checkNondetSelector(p, info, n)
				case *ast.RangeStmt:
					checkMapRange(p, info, fd, n)
				}
				return true
			})
		}
	}
}

// checkNondetSelector flags wall-clock reads and global math/rand use.
func checkNondetSelector(p *Pass, info *types.Info, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pn.Imported().Path() {
	case "time":
		switch sel.Sel.Name {
		case "Now", "Since", "Until":
			p.Reportf(sel.Pos(), "time.%s reads the wall clock in a determinism-contract package", sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		if _, ok := info.Uses[sel.Sel].(*types.Func); ok && !randDeterministic[sel.Sel.Name] {
			p.Reportf(sel.Pos(), "rand.%s uses the process-global math/rand source; draw from a seeded generator (internal/rng) instead", sel.Sel.Name)
		}
	}
}

// checkMapRange flags map iteration whose body feeds output or
// serialization.
func checkMapRange(p *Pass, info *types.Info, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	tv, ok := info.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	var appends, ordered bool
	var orderedWhat string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			ordered, orderedWhat = true, "sends on a channel"
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if isBuiltin(info, fun, "append") {
					appends = true
				}
			case *ast.SelectorExpr:
				if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
					switch path := fn.Pkg().Path(); path {
					case "fmt", "encoding/json", "encoding/gob", "encoding/csv":
						ordered, orderedWhat = true, "calls "+path+"."+fn.Name()
					}
				}
				switch fun.Sel.Name {
				case "Write", "WriteString", "WriteByte", "WriteRune", "Encode", "Marshal":
					ordered, orderedWhat = true, "calls "+fun.Sel.Name
				}
			}
		}
		return true
	})
	switch {
	case ordered:
		p.Reportf(rs.Pos(), "map iteration order is random but the loop body %s; iterate a sorted key slice instead", orderedWhat)
	case appends && !sortsAfter(p, info, fd, rs.End()):
		p.Reportf(rs.Pos(), "map iteration appends to a slice that is never sorted afterwards; the slice order is nondeterministic")
	}
}

// sortsAfter reports whether fd calls a sort.*/slices.* ordering
// function positioned after pos — the collect-then-sort idiom that
// makes a map-keys append deterministic again.
func sortsAfter(p *Pass, info *types.Info, fd *ast.FuncDecl, pos token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "sort", "slices":
					found = true
				}
			}
		}
		return true
	})
	return found
}

// isBuiltin reports whether id resolves to the named predeclared
// function.
func isBuiltin(info *types.Info, id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
