package asyncsgd

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The facade test exercises the public API end to end the way the
// examples do: build an oracle, pick the paper's step size, run the
// lock-free algorithm under an adversary, and compare with the bound.
func TestPublicAPIEndToEnd(t *testing.T) {
	oracle, err := NewIsoQuadratic(4, 1, 0.4, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	cst := oracle.Constants()
	const (
		eps     = 0.25
		threads = 3
		T       = 2500
	)
	alpha := AlphaAsync(cst, eps, 1, 12, threads, 4)
	if alpha <= 0 || alpha >= AlphaSequential(cst, eps, 1) {
		t.Fatalf("alpha = %v implausible", alpha)
	}
	x0 := NewDense(4)
	x0.Fill(0.5)
	res, err := RunEpoch(EpochConfig{
		Threads: threads, TotalIters: T, Alpha: alpha,
		Oracle: oracle, Policy: &MaxStale{Budget: 6},
		Seed: 3, X0: x0, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ht := res.HitTime(oracle.Optimum(), eps); ht < 0 {
		t.Errorf("lock-free run never hit the success region")
	}
	if TauMax(res.Windows) <= 0 {
		t.Errorf("adversary produced no contention")
	}
	bound := BoundAsync(cst, eps, 1, 12, threads, 4, T, 1.0)
	if bound <= 0 {
		t.Errorf("bound = %v", bound)
	}
}

func TestPublicAPISection5(t *testing.T) {
	oracle, err := NewQuad1D(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	alpha := 0.1
	tau := CriticalDelay(alpha)
	res, err := RunEpoch(EpochConfig{
		Threads: 2, TotalIters: tau + 1, Alpha: alpha,
		Oracle: oracle, Policy: &StaleGradient{Victim: 1, DelayIters: tau},
		Seed: 1, X0: Dense{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Past the critical delay the result magnitude is pinned near α/2
	// (the sign depends on whether (1−α)^τ under- or overshoots α).
	if got := math.Abs(res.FinalX[0]); got < 0.04 || got > 0.06 {
		t.Errorf("stale-merge |x| = %v, want ≈ α/2 = 0.05", got)
	}
	if s := SlowdownFactor(alpha, tau); s < 0.9 {
		t.Errorf("slowdown factor %v at critical delay, want ≈ 1", s)
	}
}

func TestPublicAPIFullAndParallel(t *testing.T) {
	oracle, err := NewIsoQuadratic(3, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunFull(FullConfig{
		Threads: 2, Epsilon: 0.1, Alpha0: 0.4, ItersPerEpoch: 400,
		Oracle: oracle, Seed: 2,
		PolicyFactory: func(int) Policy { return &RoundRobin{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.FinalDist > 1 {
		t.Errorf("FullSGD final distance %v", full.FinalDist)
	}
	par, err := RunParallel(ParallelConfig{
		Workers: 2, TotalIters: 2000, Alpha: 0.05, Oracle: oracle, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if par.UpdatesPerSec <= 0 {
		t.Errorf("parallel result %+v", par)
	}
}

func TestPublicAPIDataAndExperiments(t *testing.T) {
	ds, err := GenLinear(LinearConfig{Samples: 80, Dim: 4, NoiseStd: 0.1}, NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLeastSquares(ds, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Constants().C <= 0 {
		t.Error("derived constants broken")
	}
	// e1..e17 plus e19 (e18 is benchmark-derived, no driver).
	if got := len(ExperimentIDs()); got != 18 {
		t.Errorf("experiments = %d", got)
	}
	var buf bytes.Buffer
	if err := RunExperiment("e2", Quick, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Theorem 5.1") &&
		!strings.Contains(buf.String(), "stale-merge") {
		t.Errorf("experiment output unexpected:\n%s", buf.String())
	}
	seq, err := RunSequential(SeqConfig{Oracle: ls, Alpha: 0.01, Iters: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Final == nil {
		t.Error("sequential run returned nil model")
	}
}

// TestFacadeExportsOnlyWhatIsUsed keeps asyncsgd.go from regrowing dead
// aliases: every exported name must be referenced by an example, by
// example_test.go, by the facade tests or by a command, or name a type
// in the signature of an exported function that is itself kept.
func TestFacadeExportsOnlyWhatIsUsed(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	facade := parse("asyncsgd.go")
	exported := map[string]bool{}
	export := func(id *ast.Ident) {
		if id.IsExported() {
			exported[id.Name] = true
		}
	}
	var funcs []*ast.FuncDecl
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				export(d.Name)
				funcs = append(funcs, d)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					export(s.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						export(n)
					}
				}
			}
		}
	}

	used := map[string]bool{}
	// In-package facade tests name the facade's identifiers bare.
	for _, path := range []string{"facade_test.go", "facade_ext_test.go"} {
		ast.Inspect(parse(path), func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				ast.Inspect(x.X, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						used[id.Name] = true
					}
					return true
				})
				return false
			case *ast.Ident:
				used[x.Name] = true
			}
			return true
		})
	}
	// External callers go through the package's import name.
	external := []string{"example_test.go"}
	for _, root := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				external = append(external, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range external {
		f := parse(path)
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "asyncsgd" {
				local = "asyncsgd"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	// A kept function's signature keeps the types it names.
	for _, fn := range funcs {
		if !used[fn.Name.Name] {
			continue
		}
		ast.Inspect(fn.Type, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && exported[id.Name] {
				used[id.Name] = true
			}
			return true
		})
	}

	var dead []string
	for name := range exported {
		if !used[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("asyncsgd.go exports %d names nothing uses: %s", len(dead), strings.Join(dead, ", "))
	}
}
