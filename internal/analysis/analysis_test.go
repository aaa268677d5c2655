package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// update regenerates the fixture golden files instead of comparing
// against them: go test ./internal/analysis -run TestFixtures -update
var update = flag.Bool("update", false, "rewrite testdata golden files")

// TestFixtures runs the full analyzer suite over every fixture package
// under testdata/src and compares the rendered diagnostics against the
// package's expect.golden — positives must be reported exactly,
// negatives (the golden's silence) must stay silent.
func TestFixtures(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("reading fixtures: %v", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			dir := filepath.Join("testdata", "src", e.Name())
			abs, err := filepath.Abs(dir)
			if err != nil {
				t.Fatal(err)
			}
			diags, err := Vet(dir, ".")
			if err != nil {
				t.Fatalf("vetting %s: %v", dir, err)
			}
			var b strings.Builder
			for _, d := range diags {
				if rel, err := filepath.Rel(abs, d.Pos.Filename); err == nil {
					d.Pos.Filename = rel
				}
				b.WriteString(d.String())
				b.WriteByte('\n')
			}
			got := b.String()
			golden := filepath.Join(dir, "expect.golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestRepoClean is the self-check: the suite over the whole module must
// come back silent. Every real finding the analyzers ever had against
// this tree has been either fixed or annotated with a reasoned allow,
// and this test keeps it that way.
func TestRepoClean(t *testing.T) {
	pkgs, l := loadModule(t)
	for _, d := range RunAnalyzers(pkgs, l.Fset, All) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// module is the whole module's non-test packages, loaded once for every
// test that checks a repo invariant.
var module struct {
	once sync.Once
	pkgs []*Package
	l    *Loader
	err  error
}

// loadModule returns the loaded module, type-checking it from source on
// first use.
func loadModule(t *testing.T) ([]*Package, *Loader) {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	module.once.Do(func() {
		module.pkgs, module.l, module.err = Load(filepath.Join("..", ".."), "./...")
	})
	if module.err != nil {
		t.Fatalf("loading module: %v", module.err)
	}
	return module.pkgs, module.l
}

// TestRelPath pins the module-relative path logic the contract
// matching depends on.
func TestRelPath(t *testing.T) {
	cases := []struct {
		imp, mod, want string
	}{
		{"asyncsgd/internal/sweep", "asyncsgd", "internal/sweep"},
		{"asyncsgd", "asyncsgd", "."},
		{"lonedir", "", "lonedir"},
	}
	for _, c := range cases {
		p := &Package{ImportPath: c.imp, ModulePath: c.mod}
		if got := p.RelPath(); got != c.want {
			t.Errorf("RelPath(%q, %q) = %q, want %q", c.imp, c.mod, got, c.want)
		}
	}
}

// TestVetLoadError pins the failure mode: a load of a directory with no
// Go files is an error, not an empty clean result.
func TestVetLoadError(t *testing.T) {
	if _, err := Vet("testdata", "."); err == nil {
		t.Fatal("expected load error for a directory without Go files")
	}
}

// TestLoadHonoursBuildConstraints: two files that declare the same name
// under opposite build constraints type-check as one build sees them,
// with only the file this platform compiles.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"on.go":  "//go:build " + runtime.GOARCH + "\n\npackage p\n\nconst arch = true\n",
		"off.go": "//go:build !" + runtime.GOARCH + "\n\npackage p\n\nconst arch = false\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading a package with per-architecture files: %v", err)
	}
	if len(p.Files) != 1 || l.Fset.Position(p.Files[0].Pos()).Filename != filepath.Join(dir, "on.go") {
		t.Fatalf("loaded %d files, want on.go alone", len(p.Files))
	}
}
