package lint

import (
	"fmt"
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// MapRange is the rule "a `range` over a map in a simulation package carries
// `//fdlint:allow maprange <reason>`". Go randomizes map iteration order, so
// any map order that leaks into simulation behavior breaks the byte-identity
// guarantee (PR 3 shipped exactly this bug: phiaccrual/chen iterated peer
// maps in map order, so same-seed traces diverged across runs).
//
// The rule proves nothing about the loop body: whoever writes the loop says,
// in the reason, why its outcome is the same in any order (one write per
// distinct key, integer accumulation, keys collected and then sorted), and a
// reviewer reads that next to the loop. The Sim packages hold four such loops;
// the prover this rule replaces was larger than all the code it ever passed.
var MapRange = &analysis.Analyzer{
	Name:     mapRangeName,
	Doc:      "requires a reasoned //fdlint:allow on every range over a map in simulation packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runMapRange,
}

func runMapRange(pass *analysis.Pass) (any, error) {
	if !isSim(pass.Pkg.Path()) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node) {
		rs := n.(*ast.RangeStmt)
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap || allowed(pass, rs, mapRangeName) {
			return
		}
		pass.Report(analysis.Diagnostic{
			Pos: rs.Pos(),
			Message: fmt.Sprintf(
				"range over map %s: map order must not reach simulation behavior; iterate sorted keys, or say why any order gives the same result with //fdlint:allow maprange <reason>",
				types.ExprString(rs.X)),
		})
	})
	return nil, nil
}
