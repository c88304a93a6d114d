package lint

import (
	"fmt"
	"go/ast"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// WallTime flags wall-clock reads and global math/rand draws in simulation
// packages. Inside the simulation boundary all time must flow from
// des.Kernel/node.Env (simulated time) and all randomness from the seeded,
// draw-counted kernel RNG — a single time.Now or rand.Intn makes same-seed
// runs diverge and breaks snapshot/fork replay, which replays the RNG by
// draw count. Live packages (tcpnet, liveshard, examples, cmd) are exempt by
// the classification table: real clocks are their job.
var WallTime = &analysis.Analyzer{
	Name:     wallTimeName,
	Doc:      "flags wall-clock time and global math/rand use in simulation packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runWallTime,
}

// wallClockFuncs are the package-level time functions that read or wait on
// the wall clock. time.Duration arithmetic and constants are fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

func runWallTime(pass *analysis.Pass) (any, error) {
	if !isSim(pass.Pkg.Path()) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		pkg := selectorPkg(pass, sel)
		if pkg == nil {
			return
		}
		name := sel.Sel.Name
		switch pkg.Imported().Path() {
		case "time":
			if !wallClockFuncs[name] {
				return
			}
			if allowed(pass, call, wallTimeName) {
				return
			}
			pass.Report(analysis.Diagnostic{
				Pos: call.Pos(),
				Message: fmt.Sprintf(
					"wall-clock time.%s in simulation package %s: simulated time must flow from des.Kernel/node.Env (or annotate //fdlint:allow walltime <reason>)",
					name, pass.Pkg.Path()),
			})
		case "math/rand", "math/rand/v2":
			// Constructors are rngdiscipline's concern; package-level draw
			// functions use the global source, which is not seeded, not
			// draw-counted, and shared across goroutines.
			if len(name) >= 3 && name[:3] == "New" {
				return
			}
			if allowed(pass, call, wallTimeName) {
				return
			}
			pass.Report(analysis.Diagnostic{
				Pos: call.Pos(),
				Message: fmt.Sprintf(
					"global rand.%s in simulation package %s bypasses the seeded draw-counted kernel RNG (or annotate //fdlint:allow walltime <reason>)",
					name, pass.Pkg.Path()),
			})
		}
	})
	return nil, nil
}
