package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"

	"golang.org/x/tools/go/analysis"
)

// Diag is one finding, bound to its analyzer.
type Diag struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Package is one parsed and type-checked package.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Check parses the named files and type-checks them as the package at path,
// resolving imports through imp. It is the one type-check step behind both
// cmd/fdlint (imports from compiled export data) and the linttest fixture
// harness (imports from GOROOT source and other fixtures).
func Check(fset *token.FileSet, imp types.Importer, path string, filenames []string) (*Package, error) {
	files := make([]*ast.File, 0, len(filenames))
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking: %v", err)
	}
	return &Package{Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

// RunAnalyzers runs the given analyzers (and their Requires closure, in
// dependency order) over one type-checked package and returns the findings.
// It is the single execution engine behind both cmd/fdlint and the
// linttest fixture harness; fact-based analyzers are not supported.
func RunAnalyzers(p *Package, analyzers []*analysis.Analyzer) ([]Diag, error) {
	if err := analysis.Validate(analyzers); err != nil {
		return nil, err
	}
	var out []Diag
	results := make(map[*analysis.Analyzer]any)
	ran := make(map[*analysis.Analyzer]bool)

	var run func(a *analysis.Analyzer) error
	run = func(a *analysis.Analyzer) error {
		if ran[a] {
			return nil
		}
		ran[a] = true
		for _, req := range a.Requires {
			if err := run(req); err != nil {
				return err
			}
		}
		resultOf := make(map[*analysis.Analyzer]any, len(a.Requires))
		for _, req := range a.Requires {
			resultOf[req] = results[req]
		}
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       p.Fset,
			Files:      p.Files,
			Pkg:        p.Types,
			TypesInfo:  p.Info,
			TypesSizes: types.SizesFor("gc", "amd64"),
			ResultOf:   resultOf,
			Report: func(d analysis.Diagnostic) {
				out = append(out, Diag{
					Analyzer: a.Name,
					Pos:      p.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			},
			ReadFile:          os.ReadFile,
			ImportObjectFact:  func(types.Object, analysis.Fact) bool { return false },
			ImportPackageFact: func(*types.Package, analysis.Fact) bool { return false },
			ExportObjectFact:  func(types.Object, analysis.Fact) {},
			ExportPackageFact: func(analysis.Fact) {},
			AllObjectFacts:    func() []analysis.ObjectFact { return nil },
			AllPackageFacts:   func() []analysis.PackageFact { return nil },
		}
		res, err := a.Run(pass)
		if err != nil {
			return fmt.Errorf("%s on %s: %w", a.Name, p.Types.Path(), err)
		}
		results[a] = res
		return nil
	}
	for _, a := range analyzers {
		if err := run(a); err != nil {
			return nil, err
		}
	}
	return out, nil
}
