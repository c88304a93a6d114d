package lint

import (
	"fmt"
	"go/ast"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// ErrPrefix enforces the documented error contract of internal/scenario:
// every error leaving the config compiler names the offending field with a
// "scenario: " prefix (the fuzz harness asserts valid-scenario-or-prefixed-
// error-never-panic). The analyzer flags errors.New and fmt.Errorf calls in
// the scenario tree whose format literal does not start with "scenario: ".
// Concatenations count through their leftmost literal operand, so the one
// place the compiler builds an error (cursor.failf's
// `fmt.Errorf("scenario: "+format, ...)`) passes; constructors whose
// errors are demonstrably wrapped by a prefixing caller can annotate
// //fdlint:allow errprefix <reason>.
var ErrPrefix = &analysis.Analyzer{
	Name:     errPrefixName,
	Doc:      `enforces the "scenario: " prefix on internal/scenario error constructors`,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runErrPrefix,
}

// scenarioErrPrefix is the contract documented on scenario.Parse.
const scenarioErrPrefix = "scenario: "

func runErrPrefix(pass *analysis.Pass) (any, error) {
	if !underTree(pass.Pkg.Path(), scenarioPath) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		pkg := selectorPkg(pass, sel)
		if pkg == nil {
			return
		}
		var constructor string
		switch {
		case pkg.Imported().Path() == "fmt" && sel.Sel.Name == "Errorf":
			constructor = "fmt.Errorf"
		case pkg.Imported().Path() == "errors" && sel.Sel.Name == "New":
			constructor = "errors.New"
		default:
			return
		}
		lit, ok := leftmostStringLit(call.Args[0])
		if !ok {
			return // non-literal format: cannot prove either way
		}
		if strings.HasPrefix(lit, scenarioErrPrefix) {
			return
		}
		if allowed(pass, call, errPrefixName) {
			return
		}
		pass.Report(analysis.Diagnostic{
			Pos: call.Pos(),
			Message: fmt.Sprintf(
				"%s message %q lacks the %q field-path prefix scenario errors must carry (or annotate //fdlint:allow errprefix <reason>)",
				constructor, lit, scenarioErrPrefix),
		})
	})
	return nil, nil
}

// leftmostStringLit resolves the leftmost operand of a string concatenation
// chain to its literal value.
func leftmostStringLit(e ast.Expr) (string, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			e = x.X
		case *ast.BasicLit:
			s, err := strconv.Unquote(x.Value)
			return s, err == nil
		default:
			return "", false
		}
	}
}
