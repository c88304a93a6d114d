// Package linttest is a self-contained analysistest-style fixture harness
// for the fdlint analyzers.
//
// Fixtures live under testdata/src/<import-path>/ relative to the calling
// test's package directory, one directory per fixture package; import paths
// under asyncfd/ get their classification from the real shared table, so a
// fixture at testdata/src/asyncfd/internal/qos/... is swept as a simulation
// package and one under .../tcpnet/... is exempt. Expected findings are
// declared in the fixture source with analysistest syntax:
//
//	for k := range m { ... } // want `order-sensitive`
//
// where each `want` is followed by one or more quoted or backquoted regular
// expressions that must match, in order, the diagnostics reported on that
// line. Diagnostics with no matching want comment, and want comments with no
// matching diagnostic, fail the test.
//
// Fixture packages may import the standard library (type-checked from GOROOT
// source) and other fixture packages. They are plain testdata, excluded from
// the module build, so they can — and do — contain seeded violations of
// every invariant the suite enforces.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"golang.org/x/tools/go/analysis"

	"asyncfd/internal/lint"
)

// loaders shares one loader per testdata root across Run calls, so the
// standard library is type-checked from source once per test binary.
var loaders = struct {
	sync.Mutex
	m map[string]*loader
}{m: make(map[string]*loader)}

// Run loads each fixture package and checks the analyzer's diagnostics
// against the package's want comments.
func Run(t *testing.T, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loaders.Lock()
	l := loaders.m[root]
	if l == nil {
		l = newLoader(root)
		loaders.m[root] = l
	}
	loaders.Unlock()
	for _, path := range pkgPaths {
		p, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		diags, err := lint.RunAnalyzers(p, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		checkWants(t, l.fset, path, p.Files, diags)
	}
}

// loader type-checks fixture packages, resolving fixture imports from the
// testdata tree and everything else from GOROOT source.
type loader struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*lint.Package
}

func newLoader(root string) *loader {
	l := &loader{
		fset: token.NewFileSet(),
		root: root,
		pkgs: make(map[string]*lint.Package),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	return l
}

// Import implements types.Importer over fixture-then-stdlib resolution.
func (l *loader) Import(path string) (*types.Package, error) {
	if dirExists(filepath.Join(l.root, filepath.FromSlash(path))) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

func (l *loader) load(path string) (*lint.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	p, err := lint.Check(l.fset, l, path, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// wantRx matches one quoted or backquoted regexp after a want keyword.
var wantRx = regexp.MustCompile("^(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

// checkWants matches reported diagnostics against the fixture's want
// comments, both directions.
func checkWants(t *testing.T, fset *token.FileSet, pkgPath string, files []*ast.File, diags []lint.Diag) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "want ")
				if i < 0 {
					continue
				}
				rest := strings.TrimSpace(text[i+len("want "):])
				pos := fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for rest != "" {
					m := wantRx.FindString(rest)
					if m == "" {
						t.Errorf("%s:%d: malformed want pattern %q", pos.Filename, pos.Line, rest)
						break
					}
					pat, err := strconv.Unquote(m)
					if err != nil {
						t.Errorf("%s:%d: unquoting %s: %v", pos.Filename, pos.Line, m, err)
						break
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: compiling %q: %v", pos.Filename, pos.Line, pat, err)
						break
					}
					wants[k] = append(wants[k], rx)
					rest = strings.TrimSpace(rest[len(m):])
				}
			}
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		return diags[i].Pos.Column < diags[j].Pos.Column
	})
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		rxs := wants[k]
		if len(rxs) == 0 {
			t.Errorf("%s: unexpected diagnostic: %s", posString(d), d.Message)
			continue
		}
		if !rxs[0].MatchString(d.Message) {
			t.Errorf("%s: diagnostic %q does not match want %q", posString(d), d.Message, rxs[0])
		}
		wants[k] = rxs[1:]
	}
	var leftover []key
	for k, rxs := range wants {
		if len(rxs) > 0 {
			leftover = append(leftover, k)
		}
	}
	sort.Slice(leftover, func(i, j int) bool {
		if leftover[i].file != leftover[j].file {
			return leftover[i].file < leftover[j].file
		}
		return leftover[i].line < leftover[j].line
	})
	for _, k := range leftover {
		for _, rx := range wants[k] {
			t.Errorf("%s:%d: no diagnostic matching want %q (package %s)", k.file, k.line, rx, pkgPath)
		}
	}
}

func posString(d lint.Diag) string {
	return fmt.Sprintf("%s:%d:%d", d.Pos.Filename, d.Pos.Line, d.Pos.Column)
}
