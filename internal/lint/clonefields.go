package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// CloneFields is the rule "a struct that declares its own Snapshot embeds at
// most one struct, its run state, and every other field says why it is not
// checkpointed". Each layer the warm-fork engine checkpoints keeps what a run
// changes in one embedded value (des.state, netsim.state, core.nodeState, ...)
// that one copyTo assigns whole in both directions, so a field added there
// cannot be left out of a snapshot. What sits beside it is wiring, config, a
// derived cache or scratch, and carries the reason at the field:
//
//	fanout []fanoutEntry //fdlint:allow clonefields derived cache, rebuilt lazily
//
// The rule proves nothing about Snapshot's body: FuzzForkEquivalence and
// TestSweepByteIdenticalAcrossForkModes are the proof, and this shape is what
// makes them sufficient. Blank padding fields are exempt, and a type whose
// Snapshot is only promoted from an embedded field is not checked.
var CloneFields = &analysis.Analyzer{
	Name:     cloneFieldsName,
	Doc:      "requires a struct declaring Snapshot to embed one run-state struct and give a reasoned //fdlint:allow for every other field",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runCloneFields,
}

func runCloneFields(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.TypeSpec)(nil)}, func(n ast.Node) {
		ts := n.(*ast.TypeSpec)
		if bad := outsideRunState(pass, ts); len(bad) > 0 {
			pass.Report(analysis.Diagnostic{
				Pos: ts.Name.Pos(),
				Message: fmt.Sprintf(
					"%s declares Snapshot, but field(s) %s sit outside its one embedded run-state struct: move them into it, or annotate each //fdlint:allow clonefields <reason>",
					ts.Name.Name, strings.Join(bad, ", ")),
			})
		}
	})
	return nil, nil
}

// outsideRunState returns the fields of ts that break the rule, or nil when
// ts is not a struct declaring its own Snapshot. The first embedded struct is
// the run state.
func outsideRunState(pass *analysis.Pass, ts *ast.TypeSpec) []string {
	stx, ok := ts.Type.(*ast.StructType)
	obj := pass.TypesInfo.Defs[ts.Name]
	if !ok || obj == nil {
		return nil
	}
	// A declared method is found at depth 0; a promoted one is deeper.
	snap := types.NewMethodSet(types.NewPointer(obj.Type())).Lookup(pass.Pkg, "Snapshot")
	if snap == nil || len(snap.Index()) != 1 {
		return nil
	}
	var bad []string
	state := false
	for _, f := range stx.Fields.List {
		_, isStruct := pass.TypesInfo.TypeOf(f.Type).Underlying().(*types.Struct)
		switch {
		case f.Names == nil && isStruct && !state:
			state = true
		case allowed(pass, f, cloneFieldsName):
		case f.Names == nil:
			bad = append(bad, types.ExprString(f.Type))
		default:
			for _, id := range f.Names {
				if id.Name != "_" {
					bad = append(bad, id.Name)
				}
			}
		}
	}
	return bad
}
