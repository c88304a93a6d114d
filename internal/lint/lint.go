// Package lint implements fdlint, a go/analysis suite that enforces the
// simulator's determinism invariants at the source level.
//
// Every guarantee this reproduction makes about the paper's QoS tables rests
// on determinism: byte-identical output across -parallel worker counts and
// fork modes, and zero stray RNG draws in replay. Those invariants
// used to be enforced only by after-the-fact differential tests; fdlint checks
// them at compile time. The analyzers:
//
//   - maprange: flags `range` over a map in simulation packages unless the
//     loop is provably order-insensitive or its keys are collected and sorted
//     before use (the PR-3 bug class: phiaccrual/chen iterated peer maps in
//     map order, so same-seed traces diverged between runs).
//   - walltime: flags wall-clock calls (time.Now, time.Sleep, ...) and global
//     math/rand draws in simulation packages, where all time must flow from
//     des.Kernel/node.Env and all randomness from the seeded draw-counted
//     kernel RNG.
//   - clonefields: for every Snapshot/Clone method on a locally defined
//     struct, verifies the method references every struct field, so adding a
//     field without snapshotting it becomes a lint error instead of a
//     fork-divergence heisenbug (the PR-7 bug class).
//   - errprefix: internal/scenario error constructors must carry the
//     documented "scenario: " field-path prefix.
//   - rngdiscipline: no rand.New/rand.NewSource construction outside
//     internal/des, whose counting source is what makes snapshots replayable.
//
// Each analyzer honors a `//fdlint:allow <analyzer> <reason>` annotation on
// the flagged line, the line above it, or the doc comment of the enclosing
// declaration; the reason is mandatory — an annotation without one does not
// suppress. Package scope is decided by the shared classification table in
// classify.go.
package lint

import "golang.org/x/tools/go/analysis"

// Analyzers returns the full fdlint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapRange,
		WallTime,
		CloneFields,
		ErrPrefix,
		RNGDiscipline,
	}
}

// Analyzer names, shared by the Analyzer literals and their run functions
// (which cannot reference the Analyzer vars without an init cycle).
const (
	mapRangeName      = "maprange"
	wallTimeName      = "walltime"
	cloneFieldsName   = "clonefields"
	errPrefixName     = "errprefix"
	rngDisciplineName = "rngdiscipline"
)
