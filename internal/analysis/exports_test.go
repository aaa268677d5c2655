package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// internalExemptions names the exported internal/ identifiers that may
// go without a production use, each with the reason. A key is
// "pkg.Name" or "pkg.Type.Method"; a type's key covers its methods, and a
// bare package name covers the whole package. An entry that covers no
// unused name, because the name is gone or now used, fails
// TestInternalExportsAreUsed, so the table cannot outlive its reasons.
var internalExemptions = map[string]string{
	// Paper formulas that still await a driver (ROADMAP item 7).
	"martingale.BoundHogwild":         "Theorem 6.3's failure bound",
	"martingale.BoundTheorem65":       "Theorem 6.5's failure bound",
	"martingale.VSeries":              "the rate supermartingale's series V_t",
	"martingale.CheckSupermartingale": "the supermartingale condition on a V series",
	"core.AlphaHogwild":               "Theorem 6.3's step size",

	// Checkers and references that tests compare against.
	"grad.EstimateM2":     "the Monte-Carlo M² every oracle's analytic constant is checked against",
	"grad.GradSparseVia":  "the dense reference the sparse gradients are checked against",
	"vec.ApproxEqual":     "the tolerance comparison numeric tests share",
	"vec.Sparse.IsSorted": "the strictly increasing index invariant FuzzNewSparse and grad's sparse tests check",

	// Fixtures that tests of other subjects build with.
	"shm.Func":                      "scripts a thread body inline; shm's and sched's tests build machines with it",
	"shm.T":                         "the operation handle a Func body receives",
	"vec.NewSparse":                 "builds the sparse vectors of vec's tests, FuzzNewSparse and FuzzAddScaledInto",
	"vec.Dense.Fill":                "the facade examples and hogwild's tests fill vectors with it",
	"vec.Dense.NNZ":                 "grad's and data's sparsity tests count a gradient's support with it",
	"vec.Sym.Set":                   "the eigenvalue and certificate tests build matrices with it",
	"grad.NewQuadratic":             "the dense quadratic core/extensions_test.go builds",
	"martingale.RegretOptimalAlpha": "the step size the regret bound's domination test runs at",
	"serve.Job.Result":              "the CLI-vs-cluster byte-identity tests read a job's document with it",
	"serve.SweepRequest.CellCount":  "cluster's coverage tests count a request's cells with it",
	"contention.Tracker.Iterations": "TestTrackerStatisticsPinned and core's tests read the iteration count",
	"contention.Tracker.Taus":       "TestTrackerStatisticsPinned and the V-process tests read per-iteration τ",
	"core.EpochResult.Accumulators": "core's extension, discipline and sparse tests check the x_t sequence",
	"core.EpochResult.DistSqSeries": "the V-process and determinism tests read ‖x_t − x*‖²",
}

// checkExports applies the dead-export rule to the subject packages and
// returns its findings, sorted: each exported package-level name or
// exported method that no loaded package uses outside the name's own
// declaration and outside every blank-identifier declaration, and that
// implements no interface method, unless exempt; and each exemption that
// silences nothing.
func checkExports(pkgs []*Package, subject func(*Package) bool, exempt map[string]string) []string {
	type span struct{ from, to token.Pos }
	within := func(spans []span, pos token.Pos) bool {
		for _, s := range spans {
			if s.from <= pos && pos < s.to {
				return true
			}
		}
		return false
	}
	own := make(map[types.Object][]span) // a declaration's own extent
	// A blank-identifier declaration (var _ I = (*T)(nil)) declares
	// nothing anyone can reach, so a name it mentions is not used by it.
	var blank []span
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && allBlank(vs.Names) {
						blank = append(blank, span{vs.Pos(), vs.End()})
					}
				}
			}
		}
	}
	type candidate struct {
		key string
		obj types.Object
		typ *types.Named // receiver type, for methods
	}
	var cands []candidate

	for _, p := range pkgs {
		if !subject(p) {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := p.Info.Defs[d.Name].(*types.Func)
					s := span{d.Pos(), d.End()}
					own[obj] = append(own[obj], s)
					if d.Recv == nil {
						if obj.Exported() {
							cands = append(cands, candidate{key: p.Name + "." + obj.Name(), obj: obj})
						}
						continue
					}
					named := receiverNamed(obj)
					// A method is part of its receiver type's declaration.
					own[named.Obj()] = append(own[named.Obj()], s)
					if obj.Exported() {
						cands = append(cands, candidate{key: p.Name + "." + named.Obj().Name() + "." + obj.Name(), obj: obj, typ: named})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						s := span{spec.Pos(), spec.End()}
						var names []*ast.Ident
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{sp.Name}
						case *ast.ValueSpec:
							names = sp.Names
						}
						for _, id := range names {
							obj := p.Info.Defs[id]
							if obj == nil {
								continue // the blank identifier
							}
							own[obj] = append(own[obj], s)
							if obj.Exported() {
								cands = append(cands, candidate{key: p.Name + "." + obj.Name(), obj: obj})
							}
						}
					}
				}
			}
		}
	}

	used := make(map[types.Object]bool)
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			obj = origin(obj)
			if !within(own[obj], id.Pos()) && !within(blank, id.Pos()) {
				used[obj] = true
			}
		}
	}

	ifaces := interfacesByMethod(pkgs)
	implements := func(c candidate) bool {
		if generic(c.typ) {
			return false
		}
		for _, it := range ifaces[c.obj.Name()] {
			if types.Implements(c.typ, it) || types.Implements(types.NewPointer(c.typ), it) {
				return true
			}
		}
		return false
	}

	// covered reports the exemption key covering key, if any: the key
	// itself, its type's, or its package's.
	covered := func(key string) (string, bool) {
		for k := key; ; {
			if _, ok := exempt[k]; ok {
				return k, true
			}
			i := strings.LastIndex(k, ".")
			if i < 0 {
				return "", false
			}
			k = k[:i]
		}
	}
	var out []string
	needed := make(map[string]bool) // exemption keys that silence a finding
	for _, c := range cands {
		if used[c.obj] || (c.typ != nil && implements(c)) {
			continue
		}
		if k, ok := covered(c.key); ok {
			needed[k] = true
			continue
		}
		out = append(out, "unused export "+c.key)
	}
	for key := range exempt {
		if !needed[key] {
			out = append(out, "stale exemption "+key+": it covers no unused name")
		}
	}
	sort.Strings(out)
	return out
}

// allBlank reports whether every name a value spec declares is the
// blank identifier.
func allBlank(names []*ast.Ident) bool {
	for _, id := range names {
		if id.Name != "_" {
			return false
		}
	}
	return true
}

// origin maps an instantiated generic function, method or field back to
// its declaration's object.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// receiverNamed returns the named type a method is declared on.
func receiverNamed(m *types.Func) *types.Named {
	t := m.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// generic reports whether t is a generic named type not instantiated,
// which types.Implements cannot take.
func generic(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0 && n.TypeArgs().Len() == 0
}

// interfacesByMethod indexes, by method name, every non-generic
// interface a method could be satisfying: those declared in the loaded
// packages and in everything they import, the interface types written
// in the loaded code, and error.
func interfacesByMethod(pkgs []*Package) map[string][]*types.Interface {
	index := make(map[string][]*types.Interface)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := range it.NumMethods() {
			name := it.Method(i).Name()
			index[name] = append(index[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if !generic(tn.Type()) {
					add(tn.Type())
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
		for _, tv := range p.Info.Types {
			if tv.IsType() && !generic(tv.Type) {
				add(tv.Type)
			}
		}
	}
	return index
}

// TestInternalExportsAreUsed is the dead-export rule: every exported
// package-level name and exported method in internal/ must be used by
// non-test code somewhere in the module, outside its own declaration,
// or implement an interface method, or be in internalExemptions.
func TestInternalExportsAreUsed(t *testing.T) {
	pkgs, _ := loadModule(t)
	internal := func(p *Package) bool {
		return strings.HasPrefix(p.RelPath(), "internal/")
	}
	for _, f := range checkExports(pkgs, internal, internalExemptions) {
		t.Error(f)
	}
}

// TestCheckExportsFixture pins the rule itself on a fixture package
// with one dead export, one used export, one method reached only
// through an interface, one type used only by its own methods, one
// type named only in a blank interface assertion, one honoured
// exemption and one stale exemption.
func TestCheckExportsFixture(t *testing.T) {
	pkgs, _, err := Load(filepath.Join("testdata", "exports"), ".")
	if err != nil {
		t.Fatal(err)
	}
	exempt := map[string]string{
		"exports.Kept": "unused on purpose: the exemption must silence it",
		"exports.Used": "stale: Used has a caller",
	}
	got := checkExports(pkgs, func(*Package) bool { return true }, exempt)
	want := []string{
		"stale exemption exports.Used: it covers no unused name",
		"unused export exports.Asserted",
		"unused export exports.Dead",
		"unused export exports.ReceiverOnly",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
