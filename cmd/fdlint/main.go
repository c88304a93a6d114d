// Command fdlint runs the asyncfd determinism lint suite over Go packages.
//
// Usage:
//
//	fdlint [-list] [packages ...]
//
// With no package arguments it lints ./... — every package of the asyncfd
// module, excluding test files and vendored dependencies. Findings print one
// per line as
//
//	path:line:col: message (analyzer)
//
// and the exit status is 0 when the tree is clean, 1 when there are
// findings, 2 when the driver itself fails (a package does not build, go
// list is unavailable). The suite and the invariants it enforces are
// documented in docs/LINTS.md and on the analyzers in internal/lint.
//
// The driver is unitchecker-shaped but self-contained: it asks `go list
// -export` for the package graph and compiled export data, re-parses and
// type-checks each target package from source against that export data, and
// runs the internal/lint analyzers over the typed syntax. Test files are
// deliberately out of scope — the determinism invariants bind simulation
// code, and tests routinely construct scratch RNGs and iterate maps for
// assertions.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"

	"asyncfd/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// listPkg is the subset of `go list -json` output the driver consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzer suite and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := goList(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "fdlint: %v\n", err)
		return 2
	}

	// Export data for every dependency, keyed by import path; module
	// vendoring keeps canonical paths, so no import remapping is needed.
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := &exportImporter{
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		}),
	}

	var diags []lint.Diag
	broken := false
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || p.Module == nil || p.Module.Path != "asyncfd" {
			continue
		}
		if p.Error != nil {
			fmt.Fprintf(stderr, "fdlint: %s: %s\n", p.ImportPath, p.Error.Err)
			broken = true
			continue
		}
		if len(p.CgoFiles) > 0 {
			fmt.Fprintf(stderr, "fdlint: %s: skipping cgo package\n", p.ImportPath)
			continue
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		ds, err := checkPackage(fset, imp, p, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "fdlint: %s: %v\n", p.ImportPath, err)
			broken = true
			continue
		}
		diags = append(diags, ds...)
	}
	if broken {
		return 2
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
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
	cwd, _ := os.Getwd()
	for _, d := range diags {
		name := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n", name, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "fdlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// goList loads the package graph with compiled export data for every
// dependency.
func goList(patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var out, errbuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errbuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, errbuf.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(&out)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from compiled export data, special-casing
// unsafe.
type exportImporter struct {
	gc types.Importer
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return e.gc.Import(path)
}

// checkPackage type-checks one target package from source, then runs the
// analyzer suite over it.
func checkPackage(fset *token.FileSet, imp types.Importer, p *listPkg,
	analyzers []*analysis.Analyzer) ([]lint.Diag, error) {

	files := make([]string, len(p.GoFiles))
	for i, name := range p.GoFiles {
		files[i] = filepath.Join(p.Dir, name)
	}
	checked, err := lint.Check(fset, imp, p.ImportPath, files)
	if err != nil {
		return nil, err
	}
	return lint.RunAnalyzers(checked, analyzers)
}
