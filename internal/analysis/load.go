package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit the analyzers
// operate on. Files are the package's non-test sources (tests are
// excluded on purpose — they measure wall time and exercise failure
// injection by design, so the production invariants the analyzers
// enforce do not extend to them).
type Package struct {
	// Dir is the package directory on disk.
	Dir string
	// ImportPath is the package's import path within the module (the
	// directory's path relative to the module root joined to the module
	// path), or the bare directory name when no go.mod governs Dir.
	ImportPath string
	// ModulePath is the module path from go.mod ("" outside a module).
	// Analyzers use it to express module-relative package contracts.
	ModulePath string
	// Name is the package name from the package clauses.
	Name string
	// Files holds the parsed sources with comments, in file-name order
	// (deterministic diagnostics need a deterministic walk order).
	Files []*ast.File
	// Types and Info carry the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// RelPath returns the package's path relative to its module root
// ("internal/sweep"), or the import path unchanged outside a module.
// The module root package itself yields ".".
func (p *Package) RelPath() string {
	if p.ModulePath == "" {
		return p.ImportPath
	}
	if p.ImportPath == p.ModulePath {
		return "."
	}
	return strings.TrimPrefix(p.ImportPath, p.ModulePath+"/")
}

// Loader parses and type-checks module packages without go/packages or
// any module proxy: module-internal imports are resolved by walking the
// module tree, and everything else (the standard library) is
// type-checked from source via go/importer's "source" compiler, so the
// loader works offline with nothing but a GOROOT.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string
	modulePath string
	std        types.Importer
	loaded     map[string]*Package // by directory (cleaned, absolute)
	loading    map[string]bool     // import-cycle guard
}

// NewLoader returns a loader rooted at dir: the nearest enclosing go.mod
// defines the module; without one, packages load as isolated single
// directories (the fixture mode used by the analyzer tests).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset:    token.NewFileSet(),
		loaded:  make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	root, path, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	l.moduleRoot, l.modulePath = root, path
	return l, nil
}

// findModule walks up from dir looking for go.mod and returns the
// module root and module path ("", "" when no go.mod exists).
func findModule(dir string) (string, string, error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", nil
		}
		d = parent
	}
}

// Load expands the patterns relative to dir and returns the matched
// packages, type-checked together with their module-internal
// dependencies. Patterns are directory paths, optionally ending in
// "/..." for a recursive walk ("./..." covers the whole tree below
// dir). testdata, vendor and dot-directories are never walked into.
func Load(dir string, patterns ...string) ([]*Package, *Loader, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base := filepath.Join(abs, rest)
			err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(p) {
					add(p)
				}
				return nil
			})
			if err != nil {
				return nil, nil, fmt.Errorf("analysis: expanding %q: %w", pat, err)
			}
			continue
		}
		add(filepath.Join(abs, pat))
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, d := range dirs {
		p, err := l.LoadDir(d)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, l, nil
}

// hasGoFiles reports whether dir contains at least one non-test .go
// file the default build context compiles.
func hasGoFiles(dir string) bool {
	names, err := sourceFiles(dir)
	return err == nil && len(names) > 0
}

// sourceFiles lists dir's non-test .go files that the default build
// context compiles, sorted. File-name GOOS/GOARCH suffixes and //go:build
// lines count as the go command counts them, so a package with
// per-architecture files type-checks as this platform's build sees it.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// LoadDir parses and type-checks the package in dir (memoized).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	abs = filepath.Clean(abs)
	if p, ok := l.loaded[abs]; ok {
		return p, nil
	}
	if l.loading[abs] {
		return nil, fmt.Errorf("analysis: import cycle through %s", abs)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)

	names, err := sourceFiles(abs)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", abs)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	pkg := &Package{
		Dir:        abs,
		ImportPath: l.importPathOf(abs),
		ModulePath: l.modulePath,
		Name:       files[0].Name.Name,
		Files:      files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(pkg.ImportPath, l.Fset, files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkg.ImportPath, err)
	}
	pkg.Types = tpkg
	l.loaded[abs] = pkg
	return pkg, nil
}

// importPathOf maps a package directory to its import path.
func (l *Loader) importPathOf(dir string) string {
	if l.moduleRoot == "" {
		return filepath.Base(dir)
	}
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.Base(dir)
	}
	if rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}

// loaderImporter routes module-internal import paths back into the
// loader and everything else to the from-source stdlib importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if l.modulePath != "" && (path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		p, err := l.LoadDir(filepath.Join(l.moduleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
