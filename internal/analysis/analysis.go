// Package analysis implements asgdvet, the repo-invariant static
// checker: four analyzers that promote the codebase's load-bearing
// runtime guarantees — byte-identical sweep documents across reruns,
// zero-allocation steppers, atomic-only access to shared words, and
// crash-safe gate-ticket claim/publish pairing — into go-vet-style
// compile-time checks. A violation fails CI before any test has to hit
// the offending path.
//
// The suite is stdlib-only (go/parser + go/types with the from-source
// stdlib importer; no go/packages, no module proxy) so it runs anywhere
// the toolchain does. See DESIGN.md §9 for each analyzer's invariant
// and the annotation grammar:
//
//	//asgd:hotpath                   marks a function as an allocation-free
//	                                 hot path (checked by hotalloc)
//	//asgdvet:allow name(reason)     suppresses analyzer name on the
//	                                 directive's line and the line below,
//	                                 or — in a function's doc comment —
//	                                 across the whole function
//	//asgdvet:contract nondet        opts a package into the determinism
//	                                 contract (fixtures; real packages are
//	                                 matched by module-relative path)
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic go-vet style: file:line:col: analyzer: msg.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's identifier — the token the
	// //asgdvet:allow grammar refers to it by.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run reports the package's violations through pass.Reportf.
	Run func(pass *Pass)
}

// All is the asgdvet analyzer suite, in reporting order.
var All = []*Analyzer{Nondet, AtomicMix, HotAlloc, TicketPair}

// Pass carries one (analyzer, package) run. Reportf filters reports
// through the package's //asgdvet:allow directives.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	allows *allowIndex
	out    *[]Diagnostic
}

// Reportf records a diagnostic at pos unless an allow directive for
// this analyzer covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allows.covers(p.Analyzer.Name, position) {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers applies the analyzers to every package and returns the
// surviving diagnostics sorted by file, line, column, analyzer.
// Malformed asgdvet directives are themselves diagnostics (a
// suppression that silently fails to parse would be worse than the
// finding it meant to suppress).
func RunAnalyzers(pkgs []*Package, fset *token.FileSet, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		allows := buildAllowIndex(pkg, fset, &out)
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Fset: fset, Pkg: pkg, allows: allows, out: &out})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// Vet loads the patterns relative to dir and runs the full suite — the
// entry point of cmd/asgdvet and the fixture tests.
func Vet(dir string, patterns ...string) ([]Diagnostic, error) {
	pkgs, l, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return RunAnalyzers(pkgs, l.Fset, All), nil
}

// --- directive parsing ------------------------------------------------------

// allowRe captures the allow grammar: //asgdvet:allow name(reason).
// The reason is mandatory — an unexplained suppression is a finding.
var allowRe = regexp.MustCompile(`^//asgdvet:allow ([a-z]+)\((.+)\)$`)

// contractRe captures the package-contract opt-in: //asgdvet:contract name.
var contractRe = regexp.MustCompile(`^//asgdvet:contract ([a-z]+)$`)

// allowLine is one parsed allow directive's coverage.
type allowLine struct {
	file     string
	line     int // covers this line and line+1
	analyzer string
}

// allowRange is a function-scope allow (directive in the FuncDecl doc).
type allowRange struct {
	file       string
	start, end int
	analyzer   string
}

type allowIndex struct {
	lines  []allowLine
	ranges []allowRange
	// contracts holds //asgdvet:contract opt-ins by analyzer name.
	contracts map[string]bool
}

func (ai *allowIndex) covers(analyzer string, pos token.Position) bool {
	for _, al := range ai.lines {
		if al.analyzer == analyzer && al.file == pos.Filename &&
			(al.line == pos.Line || al.line == pos.Line-1) {
			return true
		}
	}
	for _, ar := range ai.ranges {
		if ar.analyzer == analyzer && ar.file == pos.Filename &&
			ar.start <= pos.Line && pos.Line <= ar.end {
			return true
		}
	}
	return false
}

// knownAnalyzer reports whether name names a suite analyzer.
func knownAnalyzer(name string) bool {
	for _, a := range All {
		if a.Name == name {
			return true
		}
	}
	return false
}

// buildAllowIndex parses every asgdvet directive in the package,
// reporting malformed ones into out directly (they cannot go through a
// Pass — the directive machinery is what is broken).
func buildAllowIndex(pkg *Package, fset *token.FileSet, out *[]Diagnostic) *allowIndex {
	ai := &allowIndex{contracts: make(map[string]bool)}
	bad := func(pos token.Pos, format string, args ...any) {
		*out = append(*out, Diagnostic{
			Pos:      fset.Position(pos),
			Analyzer: "asgdvet",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	// Function-doc directives get range scope; remember those comments
	// so the line pass does not double-index them.
	inDoc := make(map[*ast.Comment]bool)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Doc != nil {
				for _, c := range fd.Doc.List {
					m := allowRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					inDoc[c] = true
					if !knownAnalyzer(m[1]) {
						bad(c.Pos(), "allow directive names unknown analyzer %q", m[1])
						continue
					}
					pos := fset.Position(c.Pos())
					ai.ranges = append(ai.ranges, allowRange{
						file:     pos.Filename,
						start:    fset.Position(fd.Pos()).Line,
						end:      fset.Position(fd.End()).Line,
						analyzer: m[1],
					})
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//asgdvet:") {
					continue
				}
				if m := contractRe.FindStringSubmatch(c.Text); m != nil {
					if !knownAnalyzer(m[1]) {
						bad(c.Pos(), "contract directive names unknown analyzer %q", m[1])
						continue
					}
					ai.contracts[m[1]] = true
					continue
				}
				if inDoc[c] {
					continue
				}
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					bad(c.Pos(), "malformed asgdvet directive %q (want //asgdvet:allow name(reason) or //asgdvet:contract name)", c.Text)
					continue
				}
				if !knownAnalyzer(m[1]) {
					bad(c.Pos(), "allow directive names unknown analyzer %q", m[1])
					continue
				}
				pos := fset.Position(c.Pos())
				ai.lines = append(ai.lines, allowLine{file: pos.Filename, line: pos.Line, analyzer: m[1]})
			}
		}
	}
	return ai
}

// --- shared AST helpers -----------------------------------------------------

// inspectStack walks root like ast.Inspect but hands the visitor the
// ancestor stack (outermost first, excluding n itself).
func inspectStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			// Matching pop: ast.Inspect sends nil only after a visit
			// that returned true (and therefore pushed).
			stack = stack[:len(stack)-1]
			return true
		}
		if !visit(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}
