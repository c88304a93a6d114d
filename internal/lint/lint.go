// Package lint implements fdlint, a go/analysis suite that enforces the
// simulator's determinism invariants at the source level.
//
// Every guarantee this reproduction makes about the paper's QoS tables rests
// on determinism: byte-identical output across -parallel worker counts and
// fork modes, and zero stray RNG draws in replay. Those invariants
// used to be enforced only by after-the-fact differential tests; fdlint checks
// them at compile time. The analyzers:
//
//   - maprange: a `range` over a map in a simulation package must carry an
//     annotation saying why any order gives the same result (the PR-3 bug
//     class: phiaccrual/chen iterated peer maps in map order, so same-seed
//     traces diverged between runs).
//   - walltime: flags wall-clock calls (time.Now, time.Sleep, ...) and global
//     math/rand draws in simulation packages, where all time must flow from
//     des.Kernel/node.Env and all randomness from the seeded draw-counted
//     kernel RNG.
//   - clonefields: a struct that declares its own Snapshot embeds at most one
//     struct, its run state, which Snapshot and Restore copy whole, and every
//     other field says why it is not checkpointed, so a field a run changes
//     cannot sit outside a warm-fork checkpoint unremarked.
//   - rngdiscipline: no rand.New/rand.NewSource construction outside
//     internal/des, whose counting source is what makes snapshots replayable.
//
// Each analyzer honors a `//fdlint:allow <analyzer> <reason>` annotation on
// the flagged line or the line above it (clonefields: in the field's own doc
// or trailing comment); the reason is mandatory — an annotation without one
// does not suppress. Package scope is decided by the shared classification table in
// classify.go.
package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// Analyzers returns the full fdlint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapRange,
		WallTime,
		CloneFields,
		RNGDiscipline,
	}
}

// Analyzer names, shared by the Analyzer literals and their run functions
// (which cannot reference the Analyzer vars without an init cycle).
const (
	mapRangeName      = "maprange"
	wallTimeName      = "walltime"
	cloneFieldsName   = "clonefields"
	rngDisciplineName = "rngdiscipline"
)

// selectorPkg returns the *types.PkgName if sel.X names an imported package.
func selectorPkg(pass *analysis.Pass, sel *ast.SelectorExpr) *types.PkgName {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	pkg, _ := pass.TypesInfo.ObjectOf(id).(*types.PkgName)
	return pkg
}
