// Package mrfix seeds maprange fixtures in a simulation-classified package
// (asyncfd/internal/qos/... is Sim in the shared classification table).
package mrfix

import "asyncfd/internal/ident"

type node struct {
	peers map[ident.ID]uint64
}

func (n *node) arm(p ident.ID, seq uint64) {}

// startUnsorted is the seeded PR-3 regression: phiaccrual/chen iterated the
// peer map in map order while arming kernel timers, so same-seed traces
// diverged across runs.
func (n *node) startUnsorted() {
	for p, seq := range n.peers { // want `range over map n.peers`
		n.arm(p, seq)
	}
}

// sum says why any order will do.
func sum(in map[int]int) (total int) {
	//fdlint:allow maprange fixture: integer addition commutes
	for _, v := range in {
		total += v
	}
	return total
}

// allowMissingReason is NOT suppressed: the annotation has no justification.
func allowMissingReason(in map[int]int) (total int) {
	//fdlint:allow maprange
	for _, v := range in { // want `say why any order gives the same result`
		total += v
	}
	return total
}

// allowWrongAnalyzer is NOT suppressed: the annotation names another check.
func allowWrongAnalyzer(in map[int]int) (total int) {
	//fdlint:allow walltime not the analyzer reporting here
	for _, v := range in { // want `range over map in`
		total += v
	}
	return total
}

// overSlice is not a map: never the rule's business.
func overSlice(in []int) (total int) {
	for _, v := range in {
		total += v
	}
	return total
}
